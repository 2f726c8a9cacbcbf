(* serve: an in-process daemon (Server.start, default Engine, no store)
   on a Unix socket, pool width 1, driven by two closed-loop clients that
   start together on the cold daemon.  Each round starts a fresh daemon:
   cold_cpu_s is the process CPU time from daemon start until both
   clients hold their first reply; the steady phase that follows yields
   warm_cpu_s (process CPU time per reply), verified replies per second
   and the p99 client latency.  Every reply is checked afterwards
   against a single-threaded in-process Engine answering the same
   request line. *)

open Perfbench
module Tech = Slc_device.Tech
module Harness = Slc_cell.Harness
module Server = Slc_server.Server
module Engine = Slc_server.Engine
module Protocol = Slc_server.Protocol
module Oracle = Slc_ssta.Oracle
module Sdag = Slc_ssta.Sdag
module Verilog = Slc_ssta.Verilog

let tech = Inputs.tech
let clients = 2
let rounds = 3

type inputs = { dir : string; netlist_path : string; streams : string array array }

let setup ~seed () =
  let dir = Work.fresh "serve" in
  let netlist_path = Filename.concat dir "bench.v" in
  Out_channel.with_open_bin netlist_path (fun oc ->
      output_string oc (Inputs.netlist ~seed));
  let streams =
    Array.init clients (fun client -> Inputs.requests ~seed ~client ~netlist_path)
  in
  { dir; netlist_path; streams }

(* ------------------------------------------------------------------ *)
(* Clients *)

type reply = {
  line : string;  (* the request *)
  answer : string;
  latency : float;
  steady : bool;  (* sent during the steady phase *)
}

type log = {
  mutable replies : reply list;
  mutable first_at : float;
  mutable first_cpu : float;  (* Stat.cpu at the first reply *)
  mutable stats : (string * string) list;
  mutable ok : bool;  (* the connection completed its script *)
}

(* Both clients wait here after their first reply; the steady phase
   starts when the second one arrives. *)
type barrier = {
  m : Mutex.t;
  c : Condition.t;
  mutable arrived : int;
  mutable steady_start : float;
  mutable steady_cpu : float;  (* Stat.cpu at steady_start *)
}

let await b =
  Mutex.lock b.m;
  b.arrived <- b.arrived + 1;
  if b.arrived = clients then begin
    b.steady_start <- Stat.now ();
    b.steady_cpu <- Stat.cpu ();
    Condition.broadcast b.c
  end
  else
    while b.arrived < clients do
      Condition.wait b.c b.m
    done;
  let t = b.steady_start in
  Mutex.unlock b.m;
  t

let client ~path ~stream ~barrier ~steady_s log =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let ask line =
        let t0 = Stat.now () in
        output_string oc line;
        output_char oc '\n';
        flush oc;
        let answer = input_line ic in
        (answer, t0, Stat.now ())
      in
      try
        Unix.connect fd (Unix.ADDR_UNIX path);
        let answer, t0, t1 = ask stream.(0) in
        log.first_at <- t1;
        log.first_cpu <- Stat.cpu ();
        log.replies <- [ { line = stream.(0); answer; latency = t1 -. t0; steady = false } ];
        let deadline = await barrier +. steady_s in
        let rec loop i =
          if Stat.now () < deadline then begin
            let line = stream.(i mod Array.length stream) in
            let answer, t0, t1 = ask line in
            log.replies <- { line; answer; latency = t1 -. t0; steady = true } :: log.replies;
            loop (i + 1)
          end
        in
        loop 1;
        (match Protocol.parse_response (let a, _, _ = ask "stats" in a) with
        | Ok (Protocol.Ok_stats kv) -> log.stats <- kv
        | _ -> ());
        let bye, _, _ = ask "quit" in
        log.ok <- bye = "ok bye"
      with End_of_file | Sys_error _ | Unix.Unix_error _ -> log.ok <- false)

type round = {
  cold : float;  (* wall *)
  cold_cpu : float;
  steady_wall : float;
  steady_cpu : float;
  logs : log array;
  sims : int;
}

let round inp ~steady_s =
  let path = Filename.concat inp.dir "s.sock" in
  let barrier =
    {
      m = Mutex.create ();
      c = Condition.create ();
      arrived = 0;
      steady_start = 0.0;
      steady_cpu = 0.0;
    }
  in
  let logs =
    Array.init clients (fun _ ->
        { replies = []; first_at = 0.0; first_cpu = 0.0; stats = []; ok = false })
  in
  let sims0 = Harness.sim_count () in
  let t0 = Stat.now () and c0 = Stat.cpu () in
  let srv = Server.start (Engine.create ()) (Server.Unix_socket path) in
  (* The clients run on a domain of their own, so their bookkeeping
     does not queue behind the daemon's threads. *)
  let d =
    Domain.spawn (fun () ->
        let ths =
          List.init clients (fun c ->
              Thread.create
                (fun () ->
                  client ~path ~stream:inp.streams.(c) ~barrier ~steady_s logs.(c))
                ())
        in
        List.iter Thread.join ths;
        (Stat.now (), Stat.cpu ()))
  in
  let finished, finished_cpu = Domain.join d in
  Server.stop srv;
  let first = Array.fold_left (fun m l -> Float.max m l.first_at) 0.0 logs in
  let first_cpu = Array.fold_left (fun m l -> Float.max m l.first_cpu) 0.0 logs in
  {
    cold = first -. t0;
    cold_cpu = first_cpu -. c0;
    steady_wall = finished -. barrier.steady_start;
    steady_cpu = finished_cpu -. barrier.steady_cpu;
    logs;
    sims = Harness.sim_count () - sims0;
  }

(* ------------------------------------------------------------------ *)
(* Verification against a single-threaded local engine *)

let kind line = List.hd (String.split_on_char ' ' line)

type local = {
  engine : Engine.t;
  prior : Slc_core.Prior.pair Lazy.t;
  expected : (string, string) Hashtbl.t;  (* request line -> response line *)
}

let make_local () =
  let prior =
    lazy
      (Trace.span "prior.learn" (fun () ->
           Slc_core.Prior.learn_pair ~historical:(Tech.historical_for tech) ()))
  in
  {
    engine = Engine.create ~prior_for:(fun _ -> Lazy.force prior) ();
    prior;
    expected = Hashtbl.create 256;
  }

let exec local line =
  match Protocol.parse_request line with
  | Ok req -> Protocol.format_response (Engine.exec local.engine req)
  | Error e -> failwith ("benchmark request does not parse: " ^ e)

(* Answers every not-yet-seen request line of [r]; returns the
   simulator runs that took. *)
let expect local r =
  let sims0 = Harness.sim_count () in
  Array.iter
    (fun l ->
      List.iter
        (fun rep ->
          if not (Hashtbl.mem local.expected rep.line) then
            Hashtbl.add local.expected rep.line (exec local rep.line))
        (List.rev l.replies))
    r.logs;
  Harness.sim_count () - sims0

let is_failed local rep =
  String.length rep.answer >= 3 && String.sub rep.answer 0 3 = "err"
  || Hashtbl.find local.expected rep.line <> rep.answer

let replies r = List.concat_map (fun l -> l.replies) (Array.to_list r.logs)

(* ------------------------------------------------------------------ *)
(* Traced-run extras: direct calls into the layers the daemon uses *)

let mean_us f xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let _, dt = Stat.time (fun () -> List.iter (fun x -> ignore (f x)) xs) in
    1e6 *. dt /. float_of_int (List.length xs)

let layer_metrics inp local =
  let lines = Hashtbl.fold (fun l _ acc -> l :: acc) local.expected [] in
  let answers = Hashtbl.fold (fun _ a acc -> a :: acc) local.expected [] in
  let parsed =
    List.filter_map
      (fun a -> Result.to_option (Protocol.parse_response a))
      answers
  in
  let of_kind k = List.filter (fun l -> kind l = k) lines in
  (* Warm local engine: every line is already answered once. *)
  let exec_us k = mean_us (exec local) (of_kind k) in
  let src = In_channel.with_open_bin inp.netlist_path In_channel.input_all in
  let v = Trace.span "verilog.parse" (fun () -> Verilog.parse src) in
  let dag, _, outputs =
    Trace.span "verilog.to_sdag" (fun () -> Verilog.to_sdag v tech ~vdd:tech.Tech.vdd_nom)
  in
  let cache = Oracle.make_cache () in
  let oracle = Oracle.bayes_bank ~prior:(Lazy.force local.prior) tech ~k:3 in
  let report () =
    Sdag.slack_report ~cache dag oracle
      ~input_arrivals:(fun _ -> Sdag.input_edge ~at:0.0 ~slew:5e-12 ~rises:true)
      ~outputs:(List.map (fun (_, n) -> (n, 1e-9)) outputs)
  in
  ignore (report ());
  ignore (Trace.span "sdag.slack_report" report);
  let delay_us = exec_us "delay" in
  [
    ("protocol.parse_us", mean_us Protocol.parse_request lines);
    ("protocol.format_us", mean_us Protocol.format_response parsed);
    ("engine.exec_us.delay", delay_us);
    ("engine.exec_us.pdf", exec_us "pdf");
    ("engine.exec_us.sta", exec_us "sta");
    ("verilog.parse_s", Trace.total "verilog.parse");
    ("verilog.to_sdag_s", Trace.total "verilog.to_sdag");
    ("sdag.slack_report_s", Trace.total "sdag.slack_report");
    ("oracle.cache_size", float_of_int (Oracle.cache_size cache));
    ("prior.learn_s", Trace.total "prior.learn");
    ("prior.sims", Trace.sims "prior.learn");
  ]

let stat_field f kv = Option.value ~default:0.0 (Option.bind (List.assoc_opt f kv) float_of_string_opt)

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace =
  if trace then Trace.enabled := true;
  let inp, setup_s = Stat.setups 3 (setup ~seed) in
  let steady_s = Float.max 2.0 ((seconds /. float_of_int rounds) -. 2.0) in
  (* Traced runs keep round 1 untraced, as the overhead baseline. *)
  let counters = ref [] and g0 = ref (Gc.quick_stat ()) in
  let rs =
    List.init rounds (fun i ->
        if trace && i = 1 then g0 := Trace.start_counters ();
        let r = round inp ~steady_s in
        if trace && i = rounds - 1 then begin
          counters := Trace.transient_metrics () @ Trace.gc_metrics !g0 (Gc.quick_stat ());
          Trace.stop_counters ()
        end;
        r)
  in
  let local = make_local () in
  let local_sims = expect local (List.hd rs) in
  List.iter (fun r -> ignore (expect local r)) (List.tl rs);
  let all = List.concat_map replies rs in
  let failed = List.length (List.filter (is_failed local) all) in
  let errors = List.length (List.filter (fun rep -> kind rep.answer = "err") all) in
  let transport_ok = List.for_all (fun r -> Array.for_all (fun l -> l.ok) r.logs) rs in
  let verified r =
    List.length (List.filter (fun rep -> rep.steady && not (is_failed local rep)) (replies r))
  in
  let per_s count rs =
    float_of_int (List.fold_left (fun a r -> a + count r) 0 rs)
    /. List.fold_left (fun a r -> a +. r.steady_wall) 0.0 rs
  in
  (* Every steady reply, verified or not: the tracing-overhead base. *)
  let replies_per_s =
    per_s (fun r -> List.length (List.filter (fun rep -> rep.steady) (replies r)))
  in
  let lat =
    List.filter_map (fun rep -> if rep.steady then Some rep.latency else None) all
  in
  let cold = Stat.median (List.map (fun r -> r.cold) rs) in
  let cold_cpu = Stat.median (List.map (fun r -> r.cold_cpu) rs) in
  (* Process CPU seconds per steady-phase reply. *)
  let cpu_per_reply =
    List.fold_left (fun a r -> a +. r.steady_cpu) 0.0 rs
    /. float_of_int (List.length (List.filter (fun rep -> rep.steady) all))
  in
  let qps = per_s verified rs in
  let p99 = Stat.quantile 0.99 lat in
  let r1 = List.hd rs in
  Printf.printf
    "serve: %d rounds, %d clients, width %d, steady phase %.1f s per round\n\
    \  cold %.3f s CPU, %.3f s wall (medians of %d); %.1f us CPU per reply; \
     %.1f verified replies/s; latency p50 %.3f ms, p99 %.3f ms (%d samples)\n\
    \  %d replies, %d failed (%d err, %d mismatched); sims per round %s; \
     single-threaded replay of round 1: %d sims\n"
    rounds clients (Slc_num.Parallel.domain_count ()) steady_s cold_cpu cold rounds
    (1e6 *. cpu_per_reply) qps
    (1e3 *. Stat.median lat) (1e3 *. p99) (List.length lat) (List.length all)
    failed errors (failed - errors)
    (String.concat "/" (List.map (fun r -> string_of_int r.sims) rs))
    local_sims;
  let metrics =
    if not trace then
      [
        ("setup_s", setup_s);
        ("cold_cpu_s", cold_cpu);
        ("warm_cpu_s", cpu_per_reply);
        ("peak_rss_mb", Stat.peak_rss_mb ());
      ]
    else begin
      let traced = List.tl rs in
      let traced_replies = List.concat_map replies traced in
      let lat_of k =
        List.filter_map
          (fun rep -> if rep.steady && kind rep.line = k then Some rep.latency else None)
          traced_replies
      in
      let delay_lat = lat_of "delay" @ lat_of "slew" in
      let stats = List.concat_map (fun r -> Array.to_list (Array.map (fun l -> l.stats) r.logs)) traced in
      let field f = List.map (stat_field f) stats in
      let extras = layer_metrics inp local in
      let q l = if l = [] then 0.0 else Stat.quantile 0.99 l in
      !counters @ extras
      @ [
          ("engine.wasted_sims", float_of_int (r1.sims - local_sims));
          ("server.p50_us", Stat.mean (field "p50_us"));
          ("server.p99_us", List.fold_left Float.max 0.0 (field "p99_us"));
          ( "server.transport_us",
            (1e6 *. Stat.median delay_lat) -. List.assoc "engine.exec_us.delay" extras );
          ("server.requests", List.fold_left ( +. ) 0.0 (field "requests"));
          ("server.errors", List.fold_left ( +. ) 0.0 (field "errors"));
          ("server.mismatches", float_of_int (failed - errors));
          ("client.delay_p99_ms", 1e3 *. q delay_lat);
          ("client.sta_p50_ms", 1e3 *. (match lat_of "sta" with [] -> 0.0 | l -> Stat.median l));
          ( "telemetry.overhead_pct",
            100.0 *. ((replies_per_s [ r1 ] /. replies_per_s traced) -. 1.0) );
        ]
    end
  in
  {
    Metrics.correct = transport_ok && failed = 0;
    attempted = List.length all;
    failed;
    values = metrics;
  }
