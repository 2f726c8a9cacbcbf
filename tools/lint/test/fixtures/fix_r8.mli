(* R8 fixture: one export per case; Fix_r8_user is shipped code and
   Fix_r8_test a test. *)

val used_elsewhere : int -> int

val test_only : int -> int

val own_only : int -> int

val pinned : int -> int [@@slc.test_only "the test pins its result"]

val unreasoned : int -> int [@@slc.test_only]

val via_alias : int -> int

val at_toplevel : int -> int

val in_functor : int -> int
