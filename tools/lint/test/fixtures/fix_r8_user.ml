(* R8 fixture: shipped references, each in a place the R5-R7 call
   graph does not look. *)
let f = Fix_r8.used_elsewhere

module F = Fix_r8

let g = F.via_alias

let () = ignore (Fix_r8.at_toplevel 0)

module Make (X : sig
  val x : int
end) =
struct
  let y = Fix_r8.in_functor X.x
end
