type direction = Rise | Fall

type t = {
  cell : Cells.t;
  pin : string;
  out_dir : direction;
  side_values : (string * bool) list;
  name : string;
  id : int;
}

let direction_to_string = function Rise -> "rise" | Fall -> "fall"

let input_rises t = match t.out_dir with Fall -> true | Rise -> false

let assignment side_values pin value p =
  if String.equal p pin then value
  else
    match List.assoc_opt p side_values with
    | Some v -> v
    | None -> Slc_obs.Slc_error.invalid_input ~site:"Arc" "unknown pin in assignment"

(* Arc names interned to small ints.  [find] is the only constructor,
   so every arc carries its name and id from birth and queries never
   format or hash the name again.  Concurrent first interns of one name
   may each draw a number; the first published wins, so ids stay small
   and equal names always share one id. *)
let ids : (string, int) Slc_num.Memo.t = Slc_num.Memo.create ()

let next_id = Atomic.make 0

let intern name =
  Slc_num.Memo.find_or_build ids name (fun () -> Atomic.fetch_and_add next_id 1)

let find cell ~pin ~out_dir =
  if not (List.mem pin cell.Cells.inputs) then raise Not_found;
  let others = List.filter (fun p -> not (String.equal p pin)) cell.Cells.inputs in
  let n = List.length others in
  let candidates = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let side_values =
      List.mapi (fun i p -> (p, mask land (1 lsl i) <> 0)) others
    in
    let out_with v =
      Cells.logic_value cell ~on:(assignment side_values pin v)
    in
    (* All built-in cells are inverting, so a valid arc needs
       out(pin=0) = 1 and out(pin=1) = 0; the out_dir only selects the
       time direction of the input ramp, not the static condition. *)
    match (out_with false, out_with true) with
    | Some v0, Some v1 when v0 && not v1 ->
      (* Rank by number of side devices turned on along conducting
         networks: prefer worst-case stacks. *)
      let on_count =
        List.fold_left (fun acc (_, v) -> if v then acc + 1 else acc) 0 side_values
      in
      candidates := (on_count, side_values) :: !candidates
    | _ -> ()
  done;
  match List.sort (fun (a, _) (b, _) -> compare b a) !candidates with
  | (_, side_values) :: _ ->
    let name =
      String.concat "/" [ cell.Cells.name; pin; direction_to_string out_dir ]
    in
    { cell; pin; out_dir; side_values; name; id = intern name }
  | [] -> raise Not_found

let all_of_cell cell =
  List.concat_map
    (fun pin ->
      List.filter_map
        (fun out_dir ->
          match find cell ~pin ~out_dir with
          | arc -> Some arc
          | exception Not_found -> None)
        [ Rise; Fall ])
    cell.Cells.inputs

let name t = t.name

let id t = t.id

let input_on t ~switching_high p =
  assignment t.side_values t.pin switching_high p
