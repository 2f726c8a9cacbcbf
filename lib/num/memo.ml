module Telemetry = Slc_obs.Telemetry

type ('k, 'v) shard = { tbl : ('k, 'v) Hashtbl.t; lock : Mutex.t }

type ('k, 'v) t = {
  shards : ('k, 'v) shard array; (* length is a power of two *)
  counters : (Telemetry.counter * Telemetry.counter) option;
}

let create ?(shards = 1) ?counters () =
  if shards <= 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Memo.create" "shards <= 0";
  (* Round up to a power of two so shard selection is a mask. *)
  let n = ref 1 in
  while !n < shards do
    n := !n * 2
  done;
  {
    shards =
      Array.init !n (fun _ ->
          { tbl = Hashtbl.create 16; lock = Mutex.create () });
    counters;
  }

let shard_of t key =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0) else t.shards.(Hashtbl.hash key land (n - 1))

let find_or_build t key build =
  let s = shard_of t key in
  Mutex.lock s.lock;
  let hit = Hashtbl.find_opt s.tbl key in
  Mutex.unlock s.lock;
  match hit with
  | Some v ->
    Option.iter (fun (hits, _) -> Telemetry.incr hits) t.counters;
    v
  | None ->
    Option.iter (fun (_, misses) -> Telemetry.incr misses) t.counters;
    let v = build () in
    Mutex.lock s.lock;
    let v =
      match Hashtbl.find_opt s.tbl key with
      | Some first -> first
      | None ->
        Hashtbl.add s.tbl key v;
        v
    in
    Mutex.unlock s.lock;
    v

let length t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = Hashtbl.length s.tbl in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards
