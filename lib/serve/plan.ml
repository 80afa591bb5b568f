module Cell = Nvsc_sweep.Cell
module Matrix = Nvsc_sweep.Matrix
module Technology = Nvsc_nvram.Technology

type t = {
  specs : Cell.spec array;
  trace : string option;
  render : Format.formatter -> Cell.spec -> Cell.payload -> unit;
}

let chunk plan i payload =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  plan.render fmt plan.specs.(i) payload;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* --- validation --------------------------------------------------------- *)

let bad ?field message =
  Error { Protocol.err_id = None; code = "bad-request"; field; message }

let ( let* ) = Result.bind

let check_app app =
  match Nvsc_apps.Apps.find app with
  | Some _ -> Ok ()
  | None ->
    bad ~field:"app"
      (Nvsc_util.Cli.unknown ~what:"application" ~known:Nvsc_apps.Apps.names
         app)

let check_tech tech =
  match Technology.of_string tech with
  | Some t -> Ok t
  | None ->
    bad ~field:"tech"
      (Nvsc_util.Cli.unknown ~what:"technology"
         ~known:
           (List.map (fun (t : Technology.t) -> t.name) Technology.paper_set)
         tech)

let check_config ~scale ~iterations =
  if not (Float.is_finite scale && scale > 0.) then
    bad ~field:"scale" "scale must be a positive number"
  else if iterations < 1 then
    bad ~field:"iterations" "iterations must be at least 1"
  else Ok ()

(* The local subcommands print through the same two report printers, so
   the streamed chunks concatenate to byte-identical output. *)

let full_report fmt _spec payload = Cell.pp_payload fmt payload
let run_report fmt _spec payload = Cell.pp_run_section fmt payload

(* --- spec builders ------------------------------------------------------ *)

let spec ?tech ?digest ~app ~scale ~iterations kind =
  {
    Cell.app;
    kind;
    scale;
    iterations;
    tech = Option.map (fun (t : Technology.t) -> t.tech) tech;
    trace_digest = digest;
  }

let analyze ~app ~scale ~iterations =
  let* () = check_app app in
  let* () = check_config ~scale ~iterations in
  Ok
    {
      specs = [| spec ~app ~scale ~iterations Cell.Objects |];
      trace = None;
      render = full_report;
    }

let run_specs ?digest ~app ~scale ~iterations tech =
  [|
    spec ?digest ~app ~scale ~iterations Cell.Objects;
    spec ?digest ~app ~scale ~iterations Cell.Power;
    spec ~tech ?digest ~app ~scale ~iterations Cell.Place;
  |]

let run ~app ~scale ~iterations ~tech =
  let* () = check_app app in
  let* tech = check_tech tech in
  let* () = check_config ~scale ~iterations in
  Ok
    {
      specs = run_specs ~app ~scale ~iterations tech;
      trace = None;
      render = run_report;
    }

let trace_info path =
  try Ok (Nvsc_core.Trace_run.info path) with
  | Nvsc_memtrace.Trace_codec.Error msg | Sys_error msg ->
    bad ~field:"path" msg

let replay ~path ~kind ~tech =
  let* tech = check_tech tech in
  let* meta, digest = trace_info path in
  let app = meta.Nvsc_memtrace.Trace_codec.app in
  let scale = meta.scale and iterations = meta.iterations in
  let cell k = spec ~digest ~app ~scale ~iterations k in
  let* specs, render =
    match kind with
    | "run" -> Ok (run_specs ~digest ~app ~scale ~iterations tech, run_report)
    | "objects" -> Ok ([| cell Cell.Objects |], full_report)
    | "power" -> Ok ([| cell Cell.Power |], full_report)
    | "perf" -> Ok ([| cell Cell.Perf |], full_report)
    | "place" ->
      Ok
        ( [| spec ~tech ~digest ~app ~scale ~iterations Cell.Place |],
          full_report )
    | kind ->
      bad ~field:"kind"
        (Nvsc_util.Cli.unknown ~what:"kind"
           ~known:[ "run"; "objects"; "power"; "perf"; "place" ]
           kind)
  in
  Ok { specs; trace = Some path; render }

let map_result f l =
  List.fold_right
    (fun x acc ->
      let* y = f x in
      let* ys = acc in
      Ok (y :: ys))
    l (Ok [])

let sweep ~apps ~kinds ~techs ~scale ~iterations ~overrides ~from_trace =
  (* Mirrors the local [nvscav sweep] matrix construction, including the
     trace pinning: a trace-fed sweep is forced onto the trace's
     application, scale and iteration count, and every cell's cache key
     carries the trace's content digest. *)
  let* forced =
    match from_trace with
    | None -> Ok (apps, scale, iterations, None)
    | Some path ->
      let* meta, digest = trace_info path in
      Ok
        ( Some [ meta.Nvsc_memtrace.Trace_codec.app ],
          meta.scale,
          meta.iterations,
          Some digest )
  in
  let apps, scale, iterations, digest = forced in
  let* () = check_config ~scale ~iterations in
  let* kinds =
    match kinds with
    | None -> Ok None
    | Some names ->
      Result.map Option.some
        (map_result
           (fun s ->
             match Cell.kind_of_string s with
             | Some k -> Ok k
             | None ->
               bad ~field:"kinds"
                 (Nvsc_util.Cli.unknown ~what:"kind"
                    ~known:(List.map Cell.kind_to_string Cell.all_kinds)
                    s))
           names)
  in
  let* overrides =
    map_result
      (fun s ->
        match Matrix.parse_override s with
        | Ok o -> Ok o
        | Error msg -> bad ~field:"overrides" msg)
      overrides
  in
  let* matrix =
    match Matrix.make ?apps ?kinds ?techs ~scale ~iterations ~overrides () with
    | Ok m -> Ok m
    | Error msg -> bad msg
  in
  let specs = Array.of_list (Matrix.cells matrix) in
  let specs =
    match digest with
    | None -> specs
    | Some d -> Array.map (fun s -> { s with Cell.trace_digest = Some d }) specs
  in
  Ok { specs; trace = from_trace; render = Cell.render }

let of_request = function
  | Protocol.Analyze { app; scale; iterations } -> analyze ~app ~scale ~iterations
  | Protocol.Run { app; scale; iterations; tech } ->
    run ~app ~scale ~iterations ~tech
  | Protocol.Replay { path; kind; tech } -> replay ~path ~kind ~tech
  | Protocol.Sweep { apps; kinds; techs; scale; iterations; overrides;
                     from_trace } ->
    sweep ~apps ~kinds ~techs ~scale ~iterations ~overrides ~from_trace
  | Protocol.Ping | Protocol.Stats _ | Protocol.Shutdown ->
    invalid_arg "Plan.of_request: not an analysis request"
