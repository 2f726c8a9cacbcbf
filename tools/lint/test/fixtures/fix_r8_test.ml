(* R8 fixture: a test's references, which do not count. *)
let _ = Fix_r8.test_only 0 + Fix_r8.pinned 0
