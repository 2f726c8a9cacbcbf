(* Summary statistics, wall-clock and CPU-time helpers. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* User + system CPU seconds of the whole process, every domain and
   thread included.  A kernel with paravirtual steal accounting leaves
   out the time the hypervisor steals from the vCPUs, so this moves far
   less with other tenants' load than wall-clock time does. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()], its CPU seconds and its wall-clock seconds. *)
let cpu_time f =
  let c0 = cpu () and t0 = now () in
  let r = f () in
  (r, cpu () -. c0, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile q = function
  | [] -> invalid_arg "Stat.quantile: no samples"
  | xs ->
    let a = sorted xs in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> invalid_arg "Stat.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Sample mean and standard deviation (n - 1). *)
let mean_sd a =
  let n = float_of_int (Array.length a) in
  let m = Array.fold_left ( +. ) 0.0 a /. n in
  let ss = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
  (m, sqrt (ss /. (n -. 1.0)))

(* Peak resident set size of this process, from /proc (MB). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "Stat.peak_rss_mb: no VmHWM in /proc/self/status"
        | Some l -> (
          match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.0
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
            scan ())
      in
      scan ())

(* Runs [f i] for i = 0, 1, ... at least [min] times, and then for as
   long as one more call is expected to end within [seconds] of the
   start; returns the results in call order. *)
let repeat ~seconds ~min f =
  let t0 = now () in
  let rec go i acc =
    let elapsed = now () -. t0 in
    if i >= min && elapsed +. (elapsed /. float_of_int i) > seconds then
      List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* [n] set-ups, each from a collected heap so that none pays for
   sweeping the garbage of the one before, and only the latest result
   kept alive; returns (last result, median CPU seconds). *)
let setups n f =
  let last = ref None in
  let times =
    List.init n (fun _ ->
        last := None;
        Gc.full_major ();
        let r, c, _ = cpu_time f in
        last := Some r;
        c)
  in
  (Option.get !last, median times)
