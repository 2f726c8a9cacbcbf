(* Persistent content-addressed characterization store.  See store.mli
   and docs/store.md for the contract; the short version: line-oriented
   text artifacts under <root>/{priors,predictors,libraries,populations},
   exact hex floats, atomic temp+rename writes, append-only checkpoint
   logs, MD5 content keys. *)

module Err = Slc_obs.Slc_error
module Tel = Slc_obs.Telemetry
module Hex = Slc_num.Hexfloat
module Rng = Slc_prob.Rng
module Tech = Slc_device.Tech
module Mosfet = Slc_device.Mosfet
module Process = Slc_device.Process
module Arc = Slc_cell.Arc
module Nldm = Slc_cell.Nldm
module Library = Slc_cell.Library
module Harness = Slc_cell.Harness
module Char_flow = Slc_core.Char_flow
module Statistical = Slc_core.Statistical
module Prior = Slc_core.Prior
module Prior_io = Slc_core.Prior_io
module Timing_model = Slc_core.Timing_model
module Gpr = Slc_core.Gpr
module R = Slc_num.Line_reader

type t = { root : string }

let format_version = 1

type key = string

exception Stored_failure of string

let () =
  Printexc.register_printer (function
    | Stored_failure m -> Some (Printf.sprintf "Stored_failure(%s)" m)
    | _ -> None)

let fail = R.fail

(* ---------------------------------------------------------------- *)
(* Filesystem primitives                                            *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The one translation of a malformed final artifact: every reader
   raises [Line_reader.Malformed], which leaves this module as
   [Store_failed Store_corrupt].  (Damaged checkpoint records are
   dropped instead.) *)
let read_artifact path parse =
  try parse (read_file path)
  with R.Malformed m -> Err.raise_store_failed ~path ~kind:Err.Store_corrupt m

let write_atomic path content =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "tmp-" ".part" in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc content)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let version_line = Printf.sprintf "slc-store %d" format_version
let marker_name = "VERSION"
let subdirs = [ "priors"; "predictors"; "libraries"; "populations" ]

let init_root rootd =
  ensure_dir rootd;
  List.iter (fun s -> ensure_dir (Filename.concat rootd s)) subdirs;
  write_atomic (Filename.concat rootd marker_name) (version_line ^ "\n")

let check_marker marker =
  let content =
    try read_file marker
    with Sys_error m -> Err.raise_store_failed ~path:marker ~kind:Err.Store_corrupt m
  in
  match String.split_on_char ' ' (String.trim content) with
  | [ "slc-store"; v ] -> (
    match int_of_string_opt v with
    | Some v when v = format_version -> ()
    | Some v ->
      Err.raise_store_failed ~path:marker ~kind:Err.Store_version_mismatch
        (Printf.sprintf "store is on-disk format %d; this build speaks %d" v
           format_version)
    | None ->
      Err.raise_store_failed ~path:marker ~kind:Err.Store_corrupt
        ("malformed version marker: " ^ String.trim content))
  | _ ->
    Err.raise_store_failed ~path:marker ~kind:Err.Store_corrupt
      ("malformed version marker: " ^ String.trim content)

let open_ rootd =
  let marker = Filename.concat rootd marker_name in
  (if not (Sys.file_exists rootd) then init_root rootd
   else if not (Sys.is_directory rootd) then
     Err.raise_store_failed ~path:rootd ~kind:Err.Store_version_mismatch
       "path exists and is not a directory"
   else if Sys.file_exists marker then check_marker marker
   else if Array.length (Sys.readdir rootd) = 0 then init_root rootd
   else
     Err.raise_store_failed ~path:rootd ~kind:Err.Store_version_mismatch
       "directory is not an artifact store (missing VERSION marker)");
  List.iter (fun s -> ensure_dir (Filename.concat rootd s)) subdirs;
  { root = rootd }

let kind_dir = function
  | `Prior -> "priors"
  | `Predictor -> "predictors"
  | `Library -> "libraries"
  | `Population -> "populations"

let artifact_path t kind key =
  Filename.concat (Filename.concat t.root (kind_dir kind)) key

let ckpt_path t key = artifact_path t `Population key ^ ".ckpt"

(* ---------------------------------------------------------------- *)
(* Content fingerprints and keys                                    *)

let digest s = Digest.to_hex (Digest.string s)
let hx = Hex.to_string

let tech_canonical (tc : Tech.t) =
  let b = Buffer.create 512 in
  Printf.bprintf b "tech %s %d %s %s\n" tc.name tc.node_nm
    (match tc.flavor with
    | Tech.Bulk -> "bulk"
    | Tech.Soi -> "soi"
    | Tech.Finfet -> "finfet")
    (hx tc.vdd_nom);
  let mosfet name (m : Mosfet.params) =
    Printf.bprintf b "%s %s" name
      (match m.polarity with Mosfet.Nmos -> "n" | Mosfet.Pmos -> "p");
    List.iter
      (fun v -> Printf.bprintf b " %s" (hx v))
      [ m.w; m.l; m.vt; m.kp; m.alpha; m.theta; m.vsat_frac; m.lambda;
        m.cg; m.cj ];
    Buffer.add_char b '\n'
  in
  mosfet "nmos" tc.nmos;
  mosfet "pmos" tc.pmos;
  Printf.bprintf b "var %s %s %s %s %s\n" (hx tc.avt) (hx tc.sigma_vt_global)
    (hx tc.sigma_kp_rel) (hx tc.sigma_l_rel) (hx tc.sigma_cpar_rel);
  let range name (lo, hi) = Printf.bprintf b "%s %s %s\n" name (hx lo) (hx hi) in
  range "sin" tc.sin_range;
  range "cload" tc.cload_range;
  range "vdd" tc.vdd_range;
  Buffer.contents b

let tech_fingerprint tc = digest (tech_canonical tc)

let seed_str (s : Process.seed) =
  Printf.sprintf "%d %s %s %s %s %s %d" s.index (hx s.dvt_n) (hx s.dvt_p)
    (hx s.dkp_rel) (hx s.dl_rel) (hx s.dcpar_rel) s.local_seed

let seed_opt_str = function None -> "nominal" | Some s -> seed_str s

let prior_fingerprint pair = digest (Prior_io.to_string pair)

let method_fp = function
  | Statistical.Bayes prior -> "bayes " ^ prior_fingerprint prior
  | Statistical.Lse -> "lse"
  | Statistical.Lut -> "lut"

let design_fp = function
  | Statistical.Curated -> "curated"
  | Statistical.Random_per_seed rng -> "random " ^ Rng.save rng
  | Statistical.Adaptive a ->
    (* Every acquisition hyperparameter enters the fingerprint: a
       stored adaptive population is only ever served to a run that
       would have selected the same points. *)
    Printf.sprintf "adaptive %s %d %s" (Rng.save a.Statistical.a_rng)
      a.Statistical.a_candidates
      (hx a.Statistical.a_gpr_threshold)

let key_of lines = digest (String.concat "\n" lines)

let prior_key ~historical =
  key_of
    ("prior" :: string_of_int format_version
    :: List.map tech_fingerprint historical)

let predictor_key ?gpr ~prior_fp ~tech ~arc ~k ~seed () =
  key_of
    ([ "predictor"; string_of_int format_version; prior_fp;
       tech_fingerprint tech; Arc.name arc; string_of_int k;
       seed_opt_str seed ]
    (* [None] keeps the key byte-identical to the pre-GPR format, so
       existing stores stay warm; a fallback threshold changes what
       gets trained and therefore must change the key. *)
    @ match gpr with None -> [] | Some t -> [ "gpr"; hx t ])

let library_key ~seed ~tech ~cells ~levels =
  key_of
    ([ "library"; string_of_int format_version; tech_fingerprint tech;
       seed_opt_str seed;
       String.concat " " (List.map string_of_int (Array.to_list levels)) ]
    @ cells)

let population_key ~method_ ~design ~tech ~arc ~seeds ~budget ~min_points =
  let seeds_fp =
    digest (String.concat "\n" (Array.to_list (Array.map seed_str seeds)))
  in
  key_of
    [ "population"; string_of_int format_version; method_fp method_;
      design_fp design; tech_fingerprint tech; Arc.name arc; seeds_fp;
      string_of_int budget; string_of_int min_points ]

(* ---------------------------------------------------------------- *)
(* Priors                                                           *)

let put_prior t ~key pair =
  write_atomic (artifact_path t `Prior key) (Prior_io.to_string pair)

let find_prior t ~key =
  let path = artifact_path t `Prior key in
  if not (Sys.file_exists path) then None
  else Some (read_artifact path Prior_io.parse)

let get_prior t ~historical =
  let key = prior_key ~historical in
  match find_prior t ~key with
  | Some p ->
    Tel.incr Tel.store_hits;
    p
  | None ->
    Tel.incr Tel.store_misses;
    let p = Prior.learn_pair ~historical () in
    put_prior t ~key p;
    p

let prior_source store =
  let priors = Slc_num.Memo.create () in
  fun tech ->
    Slc_num.Memo.find_or_build priors tech.Tech.name (fun () ->
        let historical = Tech.historical_for tech in
        match store with
        | Some t -> get_prior t ~historical
        | None -> Prior.learn_pair ~historical ())

(* ---------------------------------------------------------------- *)
(* Predictor blocks                                                 *)

let params_str (q : Timing_model.params) =
  Printf.sprintf "%s %s %s %s" (hx q.kd) (hx q.cpar) (hx q.v_off) (hx q.alpha)

let pred_to_buffer b (p : Char_flow.predictor) =
  Printf.bprintf b "slc-pred %d\n" format_version;
  Printf.bprintf b "label %S\n" p.label;
  Printf.bprintf b "train_cost %d\n" p.train_cost;
  (match p.model with
  | Char_flow.Timing_pair { td; sout } ->
    Buffer.add_string b "timing\n";
    Printf.bprintf b "td %s\n" (params_str td);
    Printf.bprintf b "sout %s\n" (params_str sout)
  | Char_flow.Nldm_table tbl ->
    Buffer.add_string b "nldm\n";
    Nldm.to_buffer b tbl
  | Char_flow.Gpr_pair { td; sout } ->
    (* Only the serializable model (hyperparameters + training set)
       is written; [Gpr.refit] rebuilds the posterior bitwise. *)
    Buffer.add_string b "gpr\n";
    let gp name (m : Gpr.model) =
      let h = m.Gpr.m_hyper in
      Printf.bprintf b "%s %s %s %s %s %s %s %d\n" name (hx h.Gpr.signal2)
        (hx h.Gpr.noise2) (hx h.Gpr.lengths.(0)) (hx h.Gpr.lengths.(1))
        (hx h.Gpr.lengths.(2)) (hx m.Gpr.m_mean)
        (Array.length m.Gpr.m_targets);
      Array.iteri
        (fun i (pt : Slc_cell.Harness.point) ->
          Printf.bprintf b "p %s %s %s %s\n" (hx pt.sin) (hx pt.cload)
            (hx pt.vdd)
            (hx m.Gpr.m_targets.(i)))
        m.Gpr.m_points
    in
    gp "td" td;
    gp "sout" sout
  | Char_flow.Opaque ->
    Slc_obs.Slc_error.invalid_input ~site:"Slc_store" "a predictor with an Opaque model cannot be persisted");
  Buffer.add_string b "end\n"

(* A [name n] line. *)
let count c name =
  match R.expect c name with [ n ] -> R.int n | _ -> fail ("bad " ^ name)

let params_of c name =
  match R.expect c name with
  | [ kd; cpar; v_off; alpha ] ->
    {
      Timing_model.kd = R.float kd;
      cpar = R.float cpar;
      v_off = R.float v_off;
      alpha = R.float alpha;
    }
  | _ -> fail (name ^ " needs 4 values")

let parse_pred_block c =
  (match R.fields (R.next c) with
  | [ "slc-pred"; v ] when R.int v = format_version -> ()
  | _ -> fail "bad predictor header (want: slc-pred 1)");
  let label = R.quoted ~key:"label" (R.next c) in
  let train_cost = count c "train_cost" in
  let model =
    match R.fields (R.next c) with
    | [ "timing" ] ->
      let td = params_of c "td" in
      let sout = params_of c "sout" in
      Char_flow.Timing_pair { td; sout }
    | [ "nldm" ] -> Char_flow.Nldm_table (Nldm.parse_lines c)
    | [ "gpr" ] ->
      let gp name =
        match R.expect c name with
        | [ signal2; noise2; l0; l1; l2; mean; count ] ->
          let count = R.int count in
          if count < 1 then fail (name ^ " needs >= 1 training point");
          let points = Array.make count Slc_cell.Harness.{ sin = 0.0; cload = 0.0; vdd = 0.0 } in
          let targets = Array.make count 0.0 in
          for i = 0 to count - 1 do
            match R.expect c "p" with
            | [ sin; cload; vdd; y ] ->
              points.(i) <-
                {
                  Slc_cell.Harness.sin = R.float sin;
                  cload = R.float cload;
                  vdd = R.float vdd;
                };
              targets.(i) <- R.float y
            | _ -> fail ("bad " ^ name ^ " training point")
          done;
          {
            Gpr.m_hyper =
              {
                Gpr.signal2 = R.float signal2;
                noise2 = R.float noise2;
                lengths = [| R.float l0; R.float l1; R.float l2 |];
              };
            m_mean = R.float mean;
            m_points = points;
            m_targets = targets;
          }
        | _ -> fail ("expected " ^ name ^ " gpr header")
      in
      let td = gp "td" in
      let sout = gp "sout" in
      Char_flow.Gpr_pair { td; sout }
    | _ -> fail "bad predictor model kind"
  in
  (match R.fields (R.next c) with
  | [ "end" ] -> ()
  | _ -> fail "missing predictor end");
  (label, train_cost, model)

let rebuild_pred ~tech ~arc ~seed = function
  | None -> None
  | Some (label, train_cost, model) ->
    Some (Char_flow.predictor_of_model ~seed ~label ~train_cost tech arc model)

let put_predictor t ~key (p : Char_flow.predictor) =
  let b = Buffer.create 1024 in
  pred_to_buffer b p;
  write_atomic (artifact_path t `Predictor key) (Buffer.contents b)

let find_predictor ?seed t ~key ~tech ~arc =
  let path = artifact_path t `Predictor key in
  if not (Sys.file_exists path) then None
  else
    let label, train_cost, model =
      read_artifact path (fun text ->
          let c = R.of_string text in
          let block = parse_pred_block c in
          R.finish c;
          block)
    in
    Some (Char_flow.predictor_of_model ?seed ~label ~train_cost tech arc model)

let get_predictor t ~key ~seed ~tech ~arc train =
  match find_predictor ?seed t ~key ~tech ~arc with
  | Some p ->
    Tel.incr Tel.store_hits;
    p
  | None ->
    Tel.incr Tel.store_misses;
    let p = train () in
    put_predictor t ~key p;
    p

(* ---------------------------------------------------------------- *)
(* Libraries                                                        *)

let put_library t ~key lib =
  write_atomic (artifact_path t `Library key) (Library.to_string lib)

let find_library ?tech t ~key =
  let path = artifact_path t `Library key in
  if not (Sys.file_exists path) then None
  else Some (read_artifact path (Library.of_string ?tech))

(* ---------------------------------------------------------------- *)
(* Populations: entries, final artifacts, checkpoints               *)

type pop_entry = {
  e_pred : Char_flow.predictor option;
  e_status : Statistical.seed_status;
}

let entry_to_buffer b i e =
  Printf.bprintf b "entry %d\n" i;
  (match e.e_status with
  | Statistical.Seed_ok -> Buffer.add_string b "status ok\n"
  | Statistical.Seed_degraded n -> Printf.bprintf b "status degraded %d\n" n
  | Statistical.Seed_failed exn ->
    Printf.bprintf b "status failed %S\n" (Printexc.to_string exn));
  match e.e_pred with
  | None -> Buffer.add_string b "predictor none\n"
  | Some p -> pred_to_buffer b p

let parse_status l =
  match R.fields l with
  | [ "status"; "ok" ] -> Statistical.Seed_ok
  | [ "status"; "degraded"; n ] -> Statistical.Seed_degraded (R.int n)
  | "status" :: "failed" :: _ ->
    Statistical.Seed_failed (Stored_failure (R.quoted ~key:"status failed" l))
  | _ -> fail ("bad status line: " ^ l)

(* Returns the raw (label, cost, model) so the caller can rebuild the
   predictor under the right process seed. *)
let parse_entry c =
  let i =
    match R.expect c "entry" with
    | [ n ] -> R.int n
    | _ -> fail "expected entry"
  in
  let status = parse_status (R.next c) in
  let pred =
    match R.peek c with
    | Some l when R.fields l = [ "predictor"; "none" ] ->
      ignore (R.next c);
      None
    | _ -> Some (parse_pred_block c)
  in
  (i, status, pred)

let pop_to_string ~key ~method_ ~(tech : Tech.t) ~arc ~budget ~min_points
    ~train_cost (entries : pop_entry array) =
  let b = Buffer.create 8192 in
  Printf.bprintf b "slc-pop %d\n" format_version;
  Printf.bprintf b "key %s\n" key;
  Printf.bprintf b "method %s\n" (Statistical.method_label method_);
  Printf.bprintf b "tech %s\n" tech.name;
  Printf.bprintf b "arc %s\n" (Arc.name arc);
  Printf.bprintf b "budget %d\n" budget;
  Printf.bprintf b "min_points %d\n" min_points;
  Printf.bprintf b "nseeds %d\n" (Array.length entries);
  Printf.bprintf b "train_cost %d\n" train_cost;
  Array.iteri (fun i e -> entry_to_buffer b i e) entries;
  Buffer.add_string b "end\n";
  Buffer.contents b

let load_population ~key ~method_ ~tech ~arc ~seeds path =
  read_artifact path @@ fun text ->
  let c = R.of_string text in
  (match R.fields (R.next c) with
  | [ "slc-pop"; v ] ->
    let v = R.int v in
    if v <> format_version then
      Err.raise_store_failed ~path ~kind:Err.Store_version_mismatch
        (Printf.sprintf "population artifact is format %d; this build speaks %d"
           v format_version)
  | _ -> fail "bad population header (want: slc-pop 1)");
  (match R.expect c "key" with
  | [ k ] ->
    if not (String.equal k key) then
      Err.raise_store_failed ~path ~kind:Err.Store_key_mismatch
        (Printf.sprintf "artifact embeds key %s but was found under key %s" k key)
  | _ -> fail "missing key line");
  (* The method/tech/arc/budget/min_points lines are informational for
     humans poking at the store; the key already pins their content. *)
  ignore (R.expect c "method");
  ignore (R.expect c "tech");
  ignore (R.expect c "arc");
  ignore (count c "budget");
  ignore (count c "min_points");
  let n = count c "nseeds" in
  if n <> Array.length seeds then
    fail
      (Printf.sprintf "artifact holds %d seeds; caller supplied %d" n
         (Array.length seeds));
  let train_cost = count c "train_cost" in
  let predictors = Array.make n None in
  let status = Array.make n Statistical.Seed_ok in
  for i = 0 to n - 1 do
    let j, st, pred = parse_entry c in
    if j <> i then fail (Printf.sprintf "entry %d out of order (expected %d)" j i);
    status.(i) <- st;
    predictors.(i) <- rebuild_pred ~tech ~arc ~seed:seeds.(i) pred
  done;
  (match R.fields (R.next c) with [ "end" ] -> () | _ -> fail "missing end");
  R.finish c;
  Statistical.assemble ~method_ ~seeds ~predictors ~status ~train_cost

(* A checkpoint is an append-only log: a header written once,
   atomically, then one record per finished batch,

     record <nbytes> <md5> <cost>
     <nbytes bytes: the batch's entry blocks, in seed order>

   where <cost> is the batch's simulator runs and <md5> digests the
   cost, a newline and the body, so a torn or flipped record is caught
   whichever byte it hits. *)

let log_header ~key ~nseeds =
  Printf.sprintf "slc-pop-log %d\nkey %s\nnseeds %d\n" format_version key nseeds

let record_digest ~cost body = digest (string_of_int cost ^ "\n" ^ body)

let record_to_string ~cost body =
  Printf.sprintf "record %d %s %d\n%s" (String.length body)
    (record_digest ~cost body) cost body

(* The record starting at byte [pos] of [text]: its end offset, cost and
   entries.  [None] when it is short, fails its digest or fails to
   parse. *)
let read_record ~tech ~arc ~seeds text pos =
  try
    let eol =
      match String.index_from_opt text pos '\n' with
      | Some eol -> eol
      | None -> fail "short record line"
    in
    match R.fields (String.sub text pos (eol - pos)) with
    | [ "record"; nbytes; md5; cost ] ->
      let nbytes = R.int nbytes and cost = R.int cost in
      if nbytes > String.length text - eol - 1 then fail "short record";
      let body = String.sub text (eol + 1) nbytes in
      if not (String.equal (record_digest ~cost body) md5) then
        fail "record digest mismatch";
      let c = R.of_string body in
      let rec entries acc =
        if R.peek c = None then List.rev acc
        else
          let i, st, pred = parse_entry c in
          if i >= Array.length seeds then fail "entry index out of range";
          entries
            ((i, { e_pred = rebuild_pred ~tech ~arc ~seed:seeds.(i) pred; e_status = st })
            :: acc)
      in
      Some (eol + 1 + nbytes, cost, entries [])
    | _ -> fail "bad record line"
  with R.Malformed _ -> None

(* Resumes the checkpoint at [path]: the entries (by seed index) and
   total cost of every intact record up to the first damaged one.  A
   record whose seeds are already resumed is skipped whole (two
   extractions of one key appended the same batch), so no cost is
   counted twice.  A missing header — no checkpoint, an older format,
   another key or seed count — resumes nothing: a checkpoint only ever
   costs recompute.  On return the file holds exactly the header and
   the intact records, rewritten once if anything was dropped. *)
let resume_checkpoint ~key ~tech ~arc ~seeds path =
  let n = Array.length seeds in
  let header = log_header ~key ~nseeds:n in
  let text = try read_file path with Sys_error _ -> "" in
  let entries = Array.make n None in
  let cost = ref 0 in
  let rec records pos =
    match read_record ~tech ~arc ~seeds text pos with
    | None -> pos
    | Some (next, c, es) ->
      if List.for_all (fun (i, _) -> Option.is_none entries.(i)) es then begin
        List.iter (fun (i, e) -> entries.(i) <- Some e) es;
        cost := !cost + c
      end;
      records next
  in
  let intact =
    if String.starts_with ~prefix:header text then records (String.length header)
    else 0
  in
  if intact = 0 || intact < String.length text then begin
    let kept = if intact = 0 then header else String.sub text 0 intact in
    write_atomic path kept;
    Tel.add Tel.store_checkpoint_bytes (String.length kept)
  end;
  (entries, !cost)

(* ---------------------------------------------------------------- *)
(* Store-backed statistical extraction                              *)

type outcome =
  | Hit
  | Computed of { resumed_seeds : int; computed_seeds : int; batches : int }

let default_min_points = 2

let chunk size lst =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 lst

let extract_population ?min_points ?(batch_size = 4)
    ?(after_batch = fun (_ : int) -> ()) ~store ~method_ ~design ~tech ~arc
    ~seeds ~budget () =
  if batch_size < 1 then
    Slc_obs.Slc_error.invalid_input ~site:"Store.extract_population" "batch_size must be >= 1";
  let min_points_v = Option.value min_points ~default:default_min_points in
  let key =
    population_key ~method_ ~design ~tech ~arc ~seeds ~budget
      ~min_points:min_points_v
  in
  let final = artifact_path store `Population key in
  if Sys.file_exists final then begin
    let pop = load_population ~key ~method_ ~tech ~arc ~seeds final in
    Tel.incr Tel.store_hits;
    (pop, Hit)
  end
  else begin
    Tel.incr Tel.store_misses;
    let ckpt = ckpt_path store key in
    let entries, cost0 = resume_checkpoint ~key ~tech ~arc ~seeds ckpt in
    let n = Array.length seeds in
    let missing = List.filter (fun i -> Option.is_none entries.(i)) (List.init n Fun.id) in
    let resumed = n - List.length missing in
    Tel.add Tel.store_resumed_seeds resumed;
    let batches = chunk batch_size missing in
    let cost = ref cost0 in
    (* One channel for the whole call, one flush per record, so a crash
       tears at most the last record.  A channel per batch would cost
       more than the open: a dead channel's buffer is freed only when
       the GC finalizes it. *)
    let log =
      Out_channel.open_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 ckpt
    in
    Fun.protect ~finally:(fun () -> Out_channel.close_noerr log) (fun () ->
        List.iteri
          (fun b batch ->
            let sub = Array.of_list (List.map (fun i -> seeds.(i)) batch) in
            let before = Harness.sim_count () in
            let sm =
              Statistical.extract_seed_models ~min_points:min_points_v ~design
                ~method_ ~tech ~arc ~seeds:sub ~budget ()
            in
            let batch_cost = Harness.sim_count () - before in
            cost := !cost + batch_cost;
            let body = Buffer.create 8192 in
            List.iteri
              (fun pos i ->
                let e =
                  {
                    e_pred = sm.Statistical.sm_predictors.(pos);
                    e_status = sm.Statistical.sm_status.(pos);
                  }
                in
                entries.(i) <- Some e;
                entry_to_buffer body i e)
              batch;
            let record = record_to_string ~cost:batch_cost (Buffer.contents body) in
            Out_channel.output_string log record;
            Out_channel.flush log;
            Tel.add Tel.store_checkpoint_bytes (String.length record);
            Tel.incr Tel.store_checkpoints;
            after_batch (b + 1))
          batches);
    let entries = Array.map Option.get entries in
    write_atomic final
      (pop_to_string ~key ~method_ ~tech ~arc ~budget ~min_points:min_points_v
         ~train_cost:!cost entries);
    (try Sys.remove ckpt with Sys_error _ -> ());
    let pop =
      Statistical.assemble ~method_ ~seeds
        ~predictors:(Array.map (fun e -> e.e_pred) entries)
        ~status:(Array.map (fun e -> e.e_status) entries)
        ~train_cost:!cost
    in
    ( pop,
      Computed
        {
          resumed_seeds = resumed;
          computed_seeds = List.length missing;
          batches = List.length batches;
        } )
  end

let find_population ~store ~method_ ~design ~tech ~arc ~seeds ~budget
    ~min_points =
  let key =
    population_key ~method_ ~design ~tech ~arc ~seeds ~budget ~min_points
  in
  let final = artifact_path store `Population key in
  if Sys.file_exists final then
    Some (load_population ~key ~method_ ~tech ~arc ~seeds final)
  else None
