type context = {
  arc : string option;
  tech : string option;
  seed : int option;
  point : (float * float * float) option;
}

let no_context = { arc = None; tech = None; seed = None; point = None }

let is_empty_context c =
  c.arc = None && c.tech = None && c.seed = None && c.point = None

let pp_context ppf c =
  let sep = ref false in
  let item fmt =
    Format.kasprintf
      (fun s ->
        if !sep then Format.pp_print_string ppf ", ";
        sep := true;
        Format.pp_print_string ppf s)
      fmt
  in
  (match c.arc with Some a -> item "arc=%s" a | None -> ());
  (match c.tech with Some t -> item "tech=%s" t | None -> ());
  (match c.seed with Some s -> item "seed=%d" s | None -> ());
  (match c.point with
  | Some (sin, cload, vdd) ->
    item "Sin=%.3gps Cload=%.3gfF Vdd=%.3gV" (sin *. 1e12) (cload *. 1e15) vdd
  | None -> ());
  if not !sep then Format.pp_print_string ppf "no context"

type invalid = { iv_site : string; iv_detail : string; iv_context : context }

exception Invalid_input of invalid

let invalid ~site detail =
  { iv_site = site; iv_detail = detail; iv_context = no_context }

let invalid_input ~site detail = raise (Invalid_input (invalid ~site detail))

let invalid_message iv =
  Format.asprintf "Invalid_input: %s: %s [%a]" iv.iv_site iv.iv_detail
    pp_context iv.iv_context

type phase = Dc_operating_point | Transient_step

let phase_label = function
  | Dc_operating_point -> "dc-operating-point"
  | Transient_step -> "transient"

type convergence = {
  phase : phase;
  time_reached : float;
  dt : float;
  newton_iters : int;
  residual : float;
  recovery : string list;
  detail : string;
  context : context;
}

exception No_convergence of convergence

let convergence_message d =
  Format.asprintf
    "No_convergence: %s (%s) at t=%.4g s, dt=%.4g s, newton=%d, \
     residual=%.4g A, recovery=[%s] [%a]"
    d.detail (phase_label d.phase) d.time_reached d.dt d.newton_iters
    d.residual
    (String.concat "; " d.recovery)
    pp_context d.context

type sim_failure = {
  sf_detail : string;
  sf_retries : int;
  sf_window : float;
  sf_cause : convergence option;
  sf_context : context;
}

exception Simulation_failed of sim_failure

let sim_failure_message f =
  Format.asprintf "Simulation_failed: %s after %d retries (window %.4g s) [%a]%s"
    f.sf_detail f.sf_retries f.sf_window pp_context f.sf_context
    (match f.sf_cause with
    | Some c -> "; caused by " ^ convergence_message c
    | None -> "")

let raise_no_convergence ?(recovery = []) ~phase ~time_reached ~dt ~newton_iters
    ~residual detail =
  raise
    (No_convergence
       {
         phase;
         time_reached;
         dt;
         newton_iters;
         residual;
         recovery;
         detail;
         context = no_context;
       })

let with_context ctx f =
  try f () with
  | No_convergence d when is_empty_context d.context ->
    raise (No_convergence { d with context = ctx })
  | Simulation_failed s when is_empty_context s.sf_context ->
    raise (Simulation_failed { s with sf_context = ctx })
  | Invalid_input iv when is_empty_context iv.iv_context ->
    raise (Invalid_input { iv with iv_context = ctx })

type store_fault_kind = Store_version_mismatch | Store_corrupt | Store_key_mismatch

let store_fault_kind_label = function
  | Store_version_mismatch -> "version-mismatch"
  | Store_corrupt -> "corrupt"
  | Store_key_mismatch -> "key-mismatch"

type store_fault = {
  st_path : string;
  st_kind : store_fault_kind;
  st_detail : string;
}

exception Store_failed of store_fault

let store_fault_message f =
  Printf.sprintf "Store_failed: %s (%s): %s" f.st_path
    (store_fault_kind_label f.st_kind)
    f.st_detail

let raise_store_failed ~path ~kind detail =
  raise (Store_failed { st_path = path; st_kind = kind; st_detail = detail })

(* Render the structured payloads when these exceptions escape to the
   toplevel or a [Printexc] backtrace. *)
let () =
  Printexc.register_printer (function
    | No_convergence d -> Some (convergence_message d)
    | Simulation_failed f -> Some (sim_failure_message f)
    | Store_failed f -> Some (store_fault_message f)
    | Invalid_input iv -> Some (invalid_message iv)
    | _ -> None)
