(* Traced mode: each workload's pipeline driven in-process through the
   public functions of every library layer, with each call into a layer
   timed here (the program itself carries no spans for this).

   A layer's self time is the wall time of the calls made into it, minus
   the time of the calls it makes back into other timed layers: the
   application run (appkit) excludes its sink callbacks, which are charged
   to the cache filter or to the performance model.  Allocation is
   counted in minor-heap words over the same intervals. *)

module Ctx = Nvsc_appkit.Ctx
module Sink = Nvsc_memtrace.Sink
module Mem_object = Nvsc_memtrace.Mem_object
module Trace_log = Nvsc_memtrace.Trace_log
module Trace_codec = Nvsc_memtrace.Trace_codec
module Hierarchy = Nvsc_cachesim.Hierarchy
module Cache = Nvsc_cachesim.Cache
module Memory_system = Nvsc_dramsim.Memory_system
module Controller = Nvsc_dramsim.Controller
module Technology = Nvsc_nvram.Technology
module Perf_model = Nvsc_cpusim.Perf_model
module Sensitivity = Nvsc_cpusim.Sensitivity
module Hybrid_memory = Nvsc_placement.Hybrid_memory
module Scavenger = Nvsc_core.Scavenger
module Object_metrics = Nvsc_core.Object_metrics
module Trace_run = Nvsc_core.Trace_run
module Experiment = Nvsc_core.Experiment
module Engine = Nvsc_sweep.Engine
module Cell = Nvsc_sweep.Cell

(* Busy time and allocated words of one layer.  All fields are floats,
   so the record is flat and updating it never allocates. *)
type clock = { mutable s : float; mutable words : float }

let clock () = { s = 0.; words = 0. }

let techs = Array.of_list Technology.paper_set

(* Everything one traced pass measures.  A layer a workload does not run
   keeps its zeros. *)
type t = {
  appkit : clock;
  mutable app_refs : int;
  sinks : clock;  (** sink callbacks, excluded from [appkit] *)
  timer : clock;  (** the per-call timers' own cost, no layer's *)
  cachesim : clock;
  mutable filter_calls : int;
  mutable filter_refs : int;
  mutable mem_txns : int;
  mutable l1_accesses : int;
  mutable l1_misses : int;
  mutable l2_accesses : int;
  mutable l2_misses : int;
  decode : clock;
  mutable decode_refs : int;
  mutable decode_slices : int;
  encode : clock;
  mutable encode_refs : int;
  mutable encode_bytes : int;
  attribution : clock;
  mutable attributed_refs : int;
  dram : clock array;  (** per technology, in [Technology.paper_set] order *)
  mutable dram_txns : int;
  mutable row_hits : int;
  mutable row_accesses : int;
  cpusim : clock array;
  mutable cpu_refs : int;
  placement : clock;
  mutable sweep_cells : int;
  mutable cell_s : float;
  mutable sweep_wall : float;
  mutable sweep_jobs : int;
  mutable queue_wait_ms : float;
  mutable wall : float;  (** traced wall: the pass that mirrors the command *)
}

let create () =
  {
    appkit = clock (); app_refs = 0; sinks = clock (); timer = clock ();
    cachesim = clock (); filter_calls = 0; filter_refs = 0; mem_txns = 0;
    l1_accesses = 0; l1_misses = 0; l2_accesses = 0; l2_misses = 0;
    decode = clock (); decode_refs = 0; decode_slices = 0;
    encode = clock (); encode_refs = 0; encode_bytes = 0;
    attribution = clock (); attributed_refs = 0;
    dram = Array.map (fun _ -> clock ()) techs;
    dram_txns = 0; row_hits = 0; row_accesses = 0;
    cpusim = Array.map (fun _ -> clock ()) techs; cpu_refs = 0;
    placement = clock ();
    sweep_cells = 0; cell_s = 0.; sweep_wall = 0.; sweep_jobs = 0;
    queue_wait_ms = 0.; wall = 0.;
  }

let[@inline] timed c f =
  let t0 = Clock.now () and w0 = Gc.minor_words () in
  let r = f () in
  c.s <- c.s +. (Clock.now () -. t0);
  c.words <- c.words +. (Gc.minor_words () -. w0);
  r

(* What timing one call costs, measured by [calibrate]: [inside] is read
   as part of the timed call, [outside] falls to the code around it. *)
let inside = ref 0.
let outside = ref 0.

(* A sink callback: charged to layer [c], less the timer's own [inside]
   cost, and recorded with the whole timer cost in [acc.sinks] so the
   enclosing application run can subtract it.  The replay filter and the
   performance model are timed per call, hundreds of thousands of times
   a pass, so the timer cost, kept apart in [acc.timer], would otherwise
   show in their self time. *)
let[@inline] in_sink acc c f =
  let t0 = Clock.now () and w0 = Gc.minor_words () in
  f ();
  let d = Clock.now () -. t0 and dw = Gc.minor_words () -. w0 in
  c.s <- c.s +. d -. !inside;
  c.words <- c.words +. dw;
  acc.sinks.s <- acc.sinks.s +. d +. !outside;
  acc.sinks.words <- acc.sinks.words +. dw;
  acc.timer.s <- acc.timer.s +. !inside +. !outside

let wall f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

let calibrate () =
  inside := 0.;
  outside := 0.;
  let n = 200_000 in
  let estimate () =
    let acc = create () and c = clock () in
    let (), total =
      wall (fun () ->
          for _ = 1 to n do
            in_sink acc c (fun () -> ignore (Sys.opaque_identity ()))
          done)
    in
    (c.s /. float_of_int n, (total -. c.s) /. float_of_int n)
  in
  let samples = List.init 5 (fun _ -> estimate ()) |> List.sort compare in
  let i, o = List.nth samples 2 in
  inside := Float.max 0. i;
  outside := Float.max 0. o

(* [A.run] then the final flush, exactly as the program drives it;
   appkit is charged the run minus its sink callbacks. *)
let run_app acc ctx ~scale ~iterations (module A : Nvsc_apps.Workload.APP) =
  let s0 = acc.sinks.s and w0 = acc.sinks.words in
  let c = clock () in
  timed c (fun () ->
      A.run ~scale ctx ~iterations;
      Ctx.flush_refs ctx);
  acc.appkit.s <- acc.appkit.s +. c.s -. (acc.sinks.s -. s0);
  acc.appkit.words <- acc.appkit.words +. c.words -. (acc.sinks.words -. w0);
  acc.app_refs <- acc.app_refs + Ctx.total_references ctx

let feed_filter acc h b ~first ~n =
  acc.filter_calls <- acc.filter_calls + 1;
  acc.filter_refs <- acc.filter_refs + n;
  in_sink acc acc.cachesim (fun () -> Hierarchy.consume h b ~first ~n)

let count_caches acc h =
  let l1 = Hierarchy.l1d h and l2 = Hierarchy.l2 h in
  acc.l1_accesses <- acc.l1_accesses + Cache.hits l1 + Cache.misses l1;
  acc.l1_misses <- acc.l1_misses + Cache.misses l1;
  acc.l2_accesses <- acc.l2_accesses + Cache.hits l2 + Cache.misses l2;
  acc.l2_misses <- acc.l2_misses + Cache.misses l2

(* The serial path of [Scavenger.run]: attribution inside the context,
   main-loop batches through the cache filter into the main-memory trace
   (when [filter]), then the result record the report printers read. *)
let scavenge acc ~filter ~scale ~iterations app : Scavenger.result =
  let (module A : Nvsc_apps.Workload.APP) = app in
  let ctx = Ctx.create () in
  let trace = Trace_log.create () in
  let h = Hierarchy.create ~sink:(Trace_log.sink ~name:"trace-log" trace) () in
  if filter then
    Ctx.add_sink ctx
      (Sink.create ~name:"cache-hierarchy" (fun b ~first ~n ->
           match Ctx.phase ctx with
           | Mem_object.Main _ -> feed_filter acc h b ~first ~n
           | Mem_object.Pre | Mem_object.Post -> ()));
  run_app acc ctx ~scale ~iterations app;
  if filter then begin
    timed acc.cachesim (fun () -> Hierarchy.drain h);
    count_caches acc h;
    acc.mem_txns <- acc.mem_txns + Trace_log.length trace
  end;
  let metrics = Object_metrics.collect ctx ~iterations in
  let result =
    {
      Scavenger.app_name = A.name;
      description = A.description;
      input_description = A.input_description;
      paper_footprint_mb = A.paper_footprint_mb;
      iterations;
      scale;
      footprint_bytes =
        List.fold_left (fun a m -> a + Object_metrics.size_bytes m) 0 metrics;
      total_main_refs = Object_metrics.total_main_refs ctx ~iterations;
      metrics;
      fast_tallies =
        Array.init (iterations + 1) (fun i -> Ctx.fast_tally ctx ~iter:i);
      mem_trace = (if filter then Some trace else None);
      l1_miss_rate = (if filter then Cache.miss_rate (Hierarchy.l1d h) else 0.);
      l2_miss_rate = (if filter then Cache.miss_rate (Hierarchy.l2 h) else 0.);
      unattributed = Ctx.unattributed ctx;
      pipeline = Ctx.pipeline_stats ctx;
      sanitizer = None;
      persist_report = None;
      persist_stats = None;
    }
  in
  Ctx.release ctx;
  result

(* One [compare_technologies ~techs:[t]] call per technology, each timed
   on its own; the list equals the four-technology call's. *)
let power acc trace =
  let results =
    Array.to_list
      (Array.mapi
         (fun i tech ->
           match
             timed acc.dram.(i) (fun () ->
                 Memory_system.compare_technologies ~techs:[ tech ]
                   ~replay:(fun sink -> Trace_log.replay_batch trace sink)
                   ())
           with
           | [ r ] -> r
           | _ -> invalid_arg "compare_technologies: one result per tech")
         techs)
  in
  acc.dram_txns <- acc.dram_txns + Trace_log.length trace;
  List.iter
    (fun (_, (s : Controller.stats)) ->
      acc.row_hits <- acc.row_hits + s.row_hits;
      acc.row_accesses <- acc.row_accesses + s.row_hits + s.row_misses)
    results;
  results

(* [nvscav run]'s placement step: the hybrid sized at twice the
   footprint, NVRAM half in STTRAM (the command's default --tech). *)
let place acc (r : Scavenger.result) =
  timed acc.placement @@ fun () ->
  let items =
    List.map
      (fun (m : Object_metrics.t) ->
        {
          Nvsc_placement.Item.id = m.obj.Mem_object.id;
          name = m.obj.Mem_object.name;
          size_bytes = Object_metrics.size_bytes m;
          reads = m.reads;
          writes = m.writes;
          ref_share = m.ref_share;
        })
      (Scavenger.global_and_heap_metrics r)
  in
  let hybrid =
    Hybrid_memory.create ~dram_bytes:(2 * r.footprint_bytes)
      ~nvram_bytes:(2 * r.footprint_bytes)
      ~tech:(Technology.get Technology.STTRAM)
  in
  Hybrid_memory.assess (Nvsc_placement.Static_policy.plan ~hybrid items)

(* The report [nvscav run] and [nvscav replay] print. *)
let render_run (r : Scavenger.result) power assessment =
  let buf = Buffer.create 8192 in
  let fmt = Format.formatter_of_buffer buf in
  Nvsc_core.Stack_analysis.pp_summary_table fmt
    [ Nvsc_core.Stack_analysis.summarize r ];
  Nvsc_core.Object_analysis.pp_report fmt (Nvsc_core.Object_analysis.analyze r);
  let trace = Option.get r.mem_trace in
  Format.fprintf fmt "main-memory trace: %d accesses (%d reads, %d writes)@."
    (Trace_log.length trace) (Trace_log.reads trace) (Trace_log.writes trace);
  List.iter
    (fun ((t : Technology.t), p) ->
      Format.fprintf fmt "%-8s normalized power %.3f@." t.name p)
    (Memory_system.normalized_power power);
  Hybrid_memory.pp_assessment fmt assessment;
  Format.pp_print_newline fmt ();
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let find_app name =
  match Nvsc_apps.Apps.find name with
  | Some app -> app
  | None -> invalid_arg ("unknown application " ^ name)

(* --- the workloads' traced passes ---------------------------------------- *)

(* [nvscav run APP]; returns the rendered report. *)
let live_run acc app_name =
  let app = find_app app_name in
  let report, w =
    wall (fun () ->
        let r = scavenge acc ~filter:true ~scale:1.0 ~iterations:10 app in
        let p = power acc (Option.get r.mem_trace) in
        render_run r p (place acc r))
  in
  acc.wall <- w;
  report

(* [nvscav record APP -o path]'s two report lines. *)
let render_record ~path (s : Trace_codec.summary) =
  Format.asprintf
    "recorded %d references (%d reads, %d writes) in %d chunks to %s@.%a on \
     disk (%.2f bytes/ref), digest %s@."
    s.refs s.reads s.writes s.chunks path Nvsc_util.Units.pp_bytes s.bytes
    (float_of_int s.bytes /. float_of_int (max 1 s.refs))
    s.digest

(* The write side: [Trace_run.record] minus the same application run with
   a do-nothing record sink (which keeps the context's recording work). *)
let encode acc ~path app =
  let (module A : Nvsc_apps.Workload.APP) = app in
  let c = clock () in
  let s =
    timed c (fun () -> Trace_run.record ~scale:1.0 ~iterations:10 ~path app)
  in
  let ctx = Ctx.create () in
  Ctx.add_event_sink ctx (fun _ -> ());
  Ctx.set_record_sink ctx
    (fun _ ~obj_ids:_ ~instr_before:_ ~instr_tail:_ ~first:_ ~n:_ -> ());
  let bare = clock () in
  timed bare (fun () ->
      A.run ~scale:1.0 ctx ~iterations:10;
      Ctx.flush_refs ctx);
  Ctx.release ctx;
  acc.encode.s <- acc.encode.s +. c.s -. bare.s;
  acc.encode.words <- acc.encode.words +. c.words -. bare.words;
  acc.encode_refs <- acc.encode_refs + s.refs;
  acc.encode_bytes <- acc.encode_bytes + s.bytes;
  s

(* Decode and filter cannot be timed inside [Trace_run.replay], so two
   auxiliary passes over the same file measure them: decode alone (a
   no-op consumer), then decode feeding the filter with each
   [Hierarchy.consume] call timed.  Returns the filter's miss rates. *)
let decode_and_filter acc path =
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  timed acc.decode (fun () ->
      Trace_codec.stream r
        ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n ->
          acc.decode_slices <- acc.decode_slices + 1;
          acc.decode_refs <- acc.decode_refs + n)
        ());
  let trace = Trace_log.create () in
  let h = Hierarchy.create ~sink:(Trace_log.sink ~name:"trace-log" trace) () in
  let in_main = ref false in
  Trace_codec.stream r
    ~on_phase:(fun p ->
      in_main := match p with Mem_object.Main _ -> true | _ -> false)
    ~on_refs:(fun b ~obj_ids:_ ~first ~n ->
      if !in_main then feed_filter acc h b ~first ~n)
    ();
  timed acc.cachesim (fun () -> Hierarchy.drain h);
  count_caches acc h;
  acc.mem_txns <- acc.mem_txns + Trace_log.length trace;
  (Cache.miss_rate (Hierarchy.l1d h), Cache.miss_rate (Hierarchy.l2 h))

(* [nvscav replay path]: attribution is the replay's wall minus the
   decode and filter times of [decode_and_filter]. *)
let replay acc path =
  let miss_rates = decode_and_filter acc path in
  (* those per-call timers ran outside the traced wall measured below *)
  acc.timer.s <- 0.;
  let report, w =
    wall (fun () ->
        let c = clock () in
        let res = timed c (fun () -> Trace_run.replay path) in
        acc.attribution.s <-
          acc.attribution.s +. c.s -. acc.decode.s -. acc.cachesim.s;
        acc.attribution.words <-
          acc.attribution.words +. c.words -. acc.decode.words
          -. acc.cachesim.words;
        acc.attributed_refs <- acc.attributed_refs + acc.decode_refs;
        let trace = Option.get res.mem_trace in
        if Trace_log.length trace <> acc.mem_txns
           || miss_rates <> (res.l1_miss_rate, res.l2_miss_rate)
        then failwith "replay: filter pass and replay disagree";
        let p = power acc trace in
        render_run res p (place acc res))
  in
  acc.wall <- w;
  report

(* [Experiment.perf_replay] with the model's two entry points timed, each
   charged to the technology whose latency the model was built with. *)
let perf_replay acc ~scale app model =
  let lat = Perf_model.mem_latency_ns model in
  let i =
    let rec go i =
      if techs.(i).Technology.perf_sim_latency_ns = lat then i else go (i + 1)
    in
    go 0
  in
  let c = acc.cpusim.(i) in
  let ctx = Ctx.create () in
  Ctx.add_sink ctx
    (Sink.create ~name:"perf-model" (fun b ~first ~n ->
         match Ctx.phase ctx with
         | Mem_object.Main _ ->
           acc.cpu_refs <- acc.cpu_refs + n;
           in_sink acc c (fun () -> Perf_model.consume model b ~first ~n)
         | Mem_object.Pre | Mem_object.Post -> ()));
  Ctx.set_instr_sink ctx (fun n ->
      match Ctx.phase ctx with
      | Mem_object.Main _ ->
        in_sink acc c (fun () -> Perf_model.instructions model n)
      | Mem_object.Pre | Mem_object.Post -> ());
  run_app acc ctx ~scale ~iterations:1 app

let check what ok = if not ok then failwith ("mismatch: " ^ what)

let check_cell (spec : Cell.spec) (payload : Cell.payload) mine =
  let what = spec.app ^ "/" ^ Cell.kind_to_string spec.kind in
  match (payload, mine) with
  | Cell.Objects_result p, `Objects (r : Scavenger.result) ->
    check what
      (p.info.footprint_bytes = r.footprint_bytes
      && p.info.total_main_refs = r.total_main_refs)
  | Cell.Power_result p, `Power ((r : Scavenger.result), results) ->
    let trace = Option.get r.mem_trace in
    let norm = Memory_system.normalized_power results in
    check what
      (p.trace_length = Trace_log.length trace
      && p.trace_reads = Trace_log.reads trace
      && p.trace_writes = Trace_log.writes trace
      && p.l1_miss_rate = r.l1_miss_rate
      && p.l2_miss_rate = r.l2_miss_rate
      && List.length p.power_rows = List.length results
      && List.for_all2
           (fun (row : Cell.power_row)
                (((t : Technology.t), (s : Controller.stats)), (_, n)) ->
             row.tech_name = t.name
             && row.avg_power_w = s.avg_power_w
             && row.elapsed_ns = s.elapsed_ns
             && row.row_hit_rate = s.row_hit_rate
             && row.bandwidth_gbs = s.bandwidth_gbs
             && row.normalized = n)
           p.power_rows
           (List.combine results norm))
  | Cell.Perf_result rows, `Perf (points : Sensitivity.point list) ->
    check what
      (List.length rows = List.length points
      && List.for_all2
           (fun (row : Cell.perf_row) (pt : Sensitivity.point) ->
             row.perf_tech_name = pt.tech.name
             && row.latency_ns = pt.latency_ns
             && row.runtime_ns = pt.runtime_ns
             && row.normalized_runtime = pt.normalized_runtime)
           rows points)
  | _ -> check what false

(* [experiments.exe quick no-ext -j 2].  The sweep runs once on its own
   pool (sweep metrics, and the payloads every layer result is checked
   against); the traced pass then runs the same cells serially, so layer
   times never overlap, and renders the report. *)
let experiments acc =
  let config = Experiment.quick_config in
  let matrix = Engine.experiments_matrix ~config in
  Nvsc_obs.reset ();
  (* armed recorder: the pool samples queue waits only then *)
  let (outcomes, stats), sweep_wall =
    wall (fun () ->
        Nvsc_obs.scoped Nvsc_obs.on (fun () -> Engine.run ~jobs:2 matrix))
  in
  (* the same cells executed one after another, untraced: the serial
     work the pool shares out *)
  Array.iter
    (fun (o : Engine.outcome) ->
      acc.cell_s <- acc.cell_s +. snd (wall (fun () -> Cell.execute o.spec)))
    outcomes;
  acc.sweep_cells <- acc.sweep_cells + stats.cells;
  acc.sweep_wall <- acc.sweep_wall +. sweep_wall;
  acc.sweep_jobs <- stats.jobs;
  (match Nvsc_obs.Metrics.get "sweep.pool.queue_wait_ns" with
  | Some (Nvsc_obs.Metrics.Dist d) ->
    acc.queue_wait_ms <- acc.queue_wait_ms +. (float_of_int d.sum /. 1e6)
  | _ -> ());
  let report, w =
    wall (fun () ->
        Array.iter
          (fun (o : Engine.outcome) ->
            let spec = o.spec in
            let app = find_app spec.app in
            let scale = spec.scale and iterations = spec.iterations in
            let mine =
              match spec.kind with
              | Cell.Objects ->
                `Objects (scavenge acc ~filter:false ~scale ~iterations app)
              | Cell.Power ->
                let r = scavenge acc ~filter:true ~scale ~iterations app in
                `Power (r, power acc (Option.get r.mem_trace))
              | Cell.Perf ->
                `Perf (Sensitivity.run ~replay:(perf_replay acc ~scale app) ())
              | Cell.Place -> invalid_arg "experiments: no place cells"
            in
            check_cell spec o.payload mine)
          outcomes;
        Format.asprintf "%a" Experiment.run_all_of_data
          (Engine.experiments_data ~config outcomes))
  in
  acc.wall <- w;
  report
