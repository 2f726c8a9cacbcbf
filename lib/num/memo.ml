module Telemetry = Slc_obs.Telemetry

type ('k, 'v) t = {
  tbl : ('k, 'v) Hashtbl.t;
  lock : Mutex.t;
  counters : (Telemetry.counter * Telemetry.counter) option;
}

let create ?counters () =
  { tbl = Hashtbl.create 16; lock = Mutex.create (); counters }

let find_or_build t key build =
  Mutex.lock t.lock;
  let hit = Hashtbl.find_opt t.tbl key in
  Mutex.unlock t.lock;
  match hit with
  | Some v ->
    Option.iter (fun (hits, _) -> Telemetry.incr hits) t.counters;
    v
  | None ->
    Option.iter (fun (_, misses) -> Telemetry.incr misses) t.counters;
    let v = build () in
    Mutex.lock t.lock;
    let v =
      match Hashtbl.find_opt t.tbl key with
      | Some first -> first
      | None ->
        Hashtbl.add t.tbl key v;
        v
    in
    Mutex.unlock t.lock;
    v

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n
