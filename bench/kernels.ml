(* Micro-benchmark suite for the allocation-free simulation kernels
   (DESIGN.md "Kernel fast paths"): cache lookup hit/miss costs, the
   hierarchy filter stage on three stream shapes plus the captured gtc
   reference stream — each against the pre-optimization oracle in
   test/oracle/ — the DRAM controller submit path (alone, and with the
   [stats] call each technology ends with), counter recording, and
   the end-to-end scavenger pipeline.

   Results go to a machine-readable JSON file (default BENCH_kernels.json;
   CI's perf-smoke job runs [--quick] and uploads it).  Timings use
   [Sys.time] best-of-N: the suite is single-threaded and each measured
   body runs long enough that clock granularity is noise.  Speedup ratios
   are measured interleaved (optimized / oracle alternating) so frequency
   drift hits both sides equally. *)

module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Trace_log = Nvsc_memtrace.Trace_log
module Trace_gen = Nvsc_memtrace.Trace_gen
module Cache = Nvsc_cachesim.Cache
module Cache_params = Nvsc_cachesim.Cache_params
module Hierarchy = Nvsc_cachesim.Hierarchy
module Shard_filter = Nvsc_cachesim.Shard_filter
module OH = Nvsc_oracle.Oracle_hierarchy

(* --- timing ------------------------------------------------------------ *)

let time f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

let best_of reps f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to reps do
    let dt = time f in
    if dt < !best then best := dt
  done;
  !best

(* Interleave the two sides rep by rep and report each side's best. *)
let best_of_pair reps f g =
  ignore (f ());
  ignore (g ());
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to reps do
    let df = time f in
    let dg = time g in
    if df < !bf then bf := df;
    if dg < !bg then bg := dg
  done;
  (!bf, !bg)

(* --- results ----------------------------------------------------------- *)

type result = { name : string; unit_ : string; value : float; extra : (string * float) list }

let results : result list ref = ref []

let report ?(extra = []) name unit_ value =
  results := { name; unit_; value; extra } :: !results;
  Printf.printf "%-28s %10.3f %s%s\n%!" name value unit_
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "  %s=%.3f" k v) extra))

let write_json path ~quick =
  let oc = open_out path in
  let field (k, v) = Printf.sprintf "\"%s\": %.6f" k v in
  let entry r =
    String.concat ", "
      (Printf.sprintf "\"name\": \"%s\"" r.name
      :: Printf.sprintf "\"unit\": \"%s\"" r.unit_
      :: field ("value", r.value)
      :: List.map field r.extra)
  in
  Printf.fprintf oc "{\n  \"suite\": \"nvsc-kernels\",\n  \"quick\": %b,\n  \"results\": [\n%s\n  ]\n}\n"
    quick
    (String.concat ",\n"
       (List.rev_map (fun r -> "    {" ^ entry r ^ "}") !results));
  close_out oc

(* --- stream harnesses -------------------------------------------------- *)

let fill_log log gen =
  let s = Trace_log.sink log in
  ignore (Trace_gen.into gen s);
  Sink.flush s

let run_hierarchy log () =
  let h = Hierarchy.create ~sink:(Sink.null ()) () in
  let s = Sink.create ~capacity:65536 (Hierarchy.consume h) in
  Trace_log.replay_batch log s;
  Sink.flush s;
  Hierarchy.drain h

let run_oracle log () =
  let h = OH.create ~sink:(Sink.null ()) () in
  let s = Sink.create ~capacity:65536 (OH.consume h) in
  Trace_log.replay_batch log s;
  Sink.flush s;
  OH.drain h

let filter_bench ~reps name log =
  let refs = float_of_int (Trace_log.length log) in
  let opt, oracle = best_of_pair reps (run_hierarchy log) (run_oracle log) in
  report name "ns/ref"
    (opt *. 1e9 /. refs)
    ~extra:
      [
        ("oracle_ns_per_ref", oracle *. 1e9 /. refs);
        ("speedup", oracle /. opt);
        ("refs", refs);
      ]

(* --- suite ------------------------------------------------------------- *)

let run ~quick ~out =
  let reps = if quick then 3 else 7 in
  let n_refs = if quick then 200_000 else 1_000_000 in

  (* cache level: hit path (resident line, alternating read/write) *)
  let () =
    let c = Cache.create Cache_params.paper_l1d in
    ignore (Cache.write c ~line:3);
    let iters = if quick then 2_000_000 else 10_000_000 in
    let dt =
      best_of reps (fun () ->
          for _ = 1 to iters do
            ignore (Cache.read c ~line:3);
            ignore (Cache.write c ~line:3)
          done)
    in
    report "cache.hit" "ns/op" (dt *. 1e9 /. float_of_int (2 * iters))
  in

  (* cache level: miss/evict churn (streaming distinct lines) *)
  let () =
    let c = Cache.create Cache_params.paper_l1d in
    let iters = if quick then 1_000_000 else 4_000_000 in
    let dt =
      best_of reps (fun () ->
          for i = 1 to iters do
            ignore (Cache.read c ~line:(i * 7))
          done)
    in
    report "cache.miss-churn" "ns/op" (dt *. 1e9 /. float_of_int iters)
  in

  (* hierarchy filter stage on synthetic stream shapes *)
  let () =
    let log = Trace_log.create ~initial_capacity:n_refs () in
    fill_log log
      (Trace_gen.zipf ~seed:11 ~lines:65536 ~write_fraction:0.3 ~n:n_refs ());
    filter_bench ~reps "filter.zipf" log
  in
  let () =
    let log = Trace_log.create ~initial_capacity:n_refs () in
    fill_log log (Trace_gen.sequential ~n:n_refs ());
    filter_bench ~reps "filter.sequential" log
  in
  let () =
    let log = Trace_log.create ~initial_capacity:n_refs () in
    fill_log log (Trace_gen.strided ~stride_lines:3 ~n:n_refs ());
    filter_bench ~reps "filter.strided" log
  in

  (* word-granular run-heavy streams: the access shape the line-run
     coalescer targets (ISSUE 10).  Trace_gen's synthetics are
     line-granular — consecutive references never share a line, so runs
     never form — hence these streams are built locally: a run of word
     touches per line, the line chosen per shape, with writes mixed into
     the run tails. *)
  let coalesced_log pick =
    let log = Trace_log.create ~initial_capacity:n_refs () in
    let i = ref 0 and k = ref 0 in
    while !i < n_refs do
      let line, len = pick !k in
      incr k;
      let len = min len (n_refs - !i) in
      for j = 0 to len - 1 do
        Trace_log.record_raw log
          ~addr:((line * 64) + ((j * 8) land 63))
          ~size:8
          ~op:(if (j + line) land 7 = 3 then Access.Write else Access.Read)
      done;
      i := !i + len
    done;
    log
  in
  let coal_seq_log = coalesced_log (fun k -> (k land 0xFFFFF, 8)) in
  let () =
    let lcg = ref 97 in
    let next () =
      lcg := (!lcg * 1103515245) + 12345;
      (!lcg lsr 9) land 0xFFFFFF
    in
    let log =
      coalesced_log (fun _ ->
          let r = next () in
          (* 3/4 of the runs in a 256-line hot set, zipf-flavoured *)
          let line = if r land 3 < 3 then r land 0xFF else r land 0xFFFF in
          (line, 2 + (r land 15)))
    in
    filter_bench ~reps "filter.coalesced-zipf" log
  in
  let () = filter_bench ~reps "filter.coalesced-sequential" coal_seq_log in
  let () =
    let log = coalesced_log (fun k -> ((k * 3) land 0xFFFFF, 8)) in
    filter_bench ~reps "filter.coalesced-strided" log
  in

  (* the captured gtc reference stream: what the pipeline's filter stage
     actually consumes (word-granular, object-interleaved) *)
  let gtc_log =
    let log = Trace_log.create ~initial_capacity:2_000_000 () in
    let ctx = Nvsc_appkit.Ctx.create () in
    Nvsc_appkit.Ctx.add_sink ctx (Trace_log.sink ~name:"gtc-capture" log);
    let (module A : Nvsc_apps.Workload.APP) =
      Option.get (Nvsc_apps.Apps.find "gtc")
    in
    (* even --quick captures a few hundred thousand references so the
       sharded-stage numbers are not dominated by fixed per-run cost
       (cache-array creation and the end-of-trace drain walk) *)
    let scale = if quick then 0.2 else 0.3 in
    let iterations = if quick then 2 else 3 in
    A.run ~scale ctx ~iterations;
    Nvsc_appkit.Ctx.flush_refs ctx;
    log
  in
  let () = filter_bench ~reps "filter.gtc-stream" gtc_log in

  (* sharded filter stage over the same captured stream: the producer
     partitions each batch once ([Shard_filter.partition] — in the live
     pipeline that scan overlaps with generating the next batch), then k
     set-partitioned Shard_filters each consume only their own index
     list from the shared (Bigarray-backed) batch (ISSUE 9 tentpole).
     Two numbers per width: [value] is the critical path — the slowest
     shard's consume-stage busy time over its pre-built index list,
     measured with each shard run alone so another domain's timeslice
     never counts against it — which is what a k-core machine pays for
     the stage and is host-independent; [wall_ns_per_ref] is the
     measured wall time of the real k-domain team end to end (create,
     partition, consume, drain) on THIS host (≈ serial on one core),
     and [partition_ns_per_ref] the producer-side scan.  The stage baseline
     for [projected_speedup] is the serial pipeline's Hierarchy filter
     over the identical batch; shard:scaling summarises the 4-shard
     projection. *)
  (* a single shard pass is sub-millisecond at --quick: time with the
     monotonic ns clock, not [Sys.time]'s coarse process-time ticks *)
  let best_ns reps f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Nvsc_obs.Clock.now_ns () in
      f ();
      let dt = float_of_int (Nvsc_obs.Clock.now_ns () - t0) in
      if dt < !best then best := dt
    done;
    !best
  in
  let timed f =
    let t0 = Nvsc_obs.Clock.now_ns () in
    f ();
    float_of_int (Nvsc_obs.Clock.now_ns () - t0)
  in
  (* Time the consume stage only, on a fresh (cold) simulator each
     rep: hierarchy creation and the end-of-trace drain happen once
     per *run*, not per batch, so they amortize to nothing over a
     real experiment and would only blur the per-reference stage cost
     here.  The serial baseline is re-sampled INTERLEAVED with each
     width's shard samples (same rep loop, samples milliseconds
     apart) so host frequency drift cancels out of the speedup ratio
     — the same discipline the oracle comparisons use. *)
  let shard_stage ~reps batch ~len ~shards =
    let serial_sample () =
      let h = Hierarchy.create ~sink:(Sink.null ()) () in
      timed (fun () -> Hierarchy.consume h batch ~first:0 ~n:len)
    in
      let index_bufs = Array.init shards (fun _ -> Array.make len 0) in
      let counts = Array.make shards 0 in
      (* the team's load-balanced residue assignment, sampled exactly as
         the live pipeline does on its first flush *)
      let team =
        Array.init shards (fun shard -> Shard_filter.create ~shards ~shard ())
      in
      if shards > 1 then Shard_filter.rebalance team batch ~first:0 ~n:len;
      let geometry = team.(0) in
      let fresh_filter shard =
        let sf = Shard_filter.create ~shards ~shard () in
        Shard_filter.use_assignment sf (Shard_filter.assignment geometry);
        sf
      in
      (* measured at every width, including 1: the live pipeline skips
         the scan at width 1, but reporting the single-list passthrough
         cost here (instead of a constant 0.0) keeps the field
         comparable across widths *)
      let partition_ns =
        best_ns reps (fun () ->
            Shard_filter.partition geometry batch ~first:0 ~n:len ~index_bufs
              ~counts)
      in
      let shard_consume shard sf =
        if shards = 1 then Shard_filter.consume sf batch ~first:0 ~n:len ~base:0
        else
          Shard_filter.consume_selected sf batch ~idxs:index_bufs.(shard)
            ~m:counts.(shard) ~first:0 ~base:0
      in
      let shard_sample shard () =
        let sf = fresh_filter shard in
        timed (fun () -> shard_consume shard sf)
      in
      let shard_job shard () =
        let sf = fresh_filter shard in
        shard_consume shard sf;
        Shard_filter.drain sf ~base:len
      in
      (* warm-up, then interleaved best-of: serial and every shard
         sampled inside the same rep *)
      ignore (serial_sample ());
      for shard = 0 to shards - 1 do
        ignore (shard_sample shard ())
      done;
      let serial = ref infinity in
      let busy = Array.make shards infinity in
      for _ = 1 to reps do
        let s = serial_sample () in
        if s < !serial then serial := s;
        for shard = 0 to shards - 1 do
          let b = shard_sample shard () in
          if b < busy.(shard) then busy.(shard) <- b
        done
      done;
      (* critical path: max over shards of each shard's isolated best *)
      let crit = Array.fold_left max 0. busy in
      (* wall: producer partition plus the real domain team, all shards
         concurrent *)
      let wall = ref infinity in
      for _ = 1 to reps do
        let dt =
          timed (fun () ->
              if shards = 1 then shard_job 0 ()
              else begin
                Shard_filter.partition geometry batch ~first:0 ~n:len
                  ~index_bufs ~counts;
                ignore
                  (Nvsc_team.Pool.map ~jobs:shards
                     (fun shard -> shard_job shard ())
                     (Array.init shards Fun.id))
              end)
        in
        if dt < !wall then wall := dt
      done;
      (!wall, crit, partition_ns, !serial)
  in
  let () =
    let batch, len = Trace_log.as_batch gtc_log in
    let refs = float_of_int len in
    let reps = 2 * reps in
    let scaling =
      List.map
        (fun shards ->
          let wall, crit, partition_ns, serial =
            shard_stage ~reps batch ~len ~shards
          in
          report
            (Printf.sprintf "shard:filter-gtc-%d" shards)
            "ns/ref" (crit /. refs)
            ~extra:
              [
                ("wall_ns_per_ref", wall /. refs);
                ("serial_ns_per_ref", serial /. refs);
                ("partition_ns_per_ref", partition_ns /. refs);
                ("projected_speedup", serial /. crit);
                ("refs", refs);
              ];
          (shards, serial /. crit))
        [ 1; 2; 4; 8 ]
    in
    report "shard:scaling" "x"
      (List.assoc 4 scaling)
      ~extra:
        (List.map
           (fun (shards, s) ->
             (Printf.sprintf "projected_speedup_%d" shards, s))
           scaling)
  in

  (* Gref/s projection (ISSUE 10): the filter stage on the run-heavy word
     stream — line-run coalescing collapsing each run to one cache probe
     — sharded 8 wide; the critical-path cost per reference inverted into
     throughput.  The partition scan is excluded from the critical path
     for the same reason as in shard:filter-gtc: it runs on the producer
     overlapped with generating the next batch. *)
  let () =
    let batch, len = Trace_log.as_batch coal_seq_log in
    let refs = float_of_int len in
    let _wall, crit, partition_ns, serial =
      shard_stage ~reps:(2 * reps) batch ~len ~shards:8
    in
    report "gref:projection" "Gref/s"
      (refs /. crit)
      ~extra:
        [
          ("crit_ns_per_ref", crit /. refs);
          ("serial_ns_per_ref", serial /. refs);
          ("partition_ns_per_ref", partition_ns /. refs);
          ("projected_speedup", serial /. crit);
          ("refs", refs);
        ]
  in

  (* DRAM controller submit path on a line-granular trace *)
  let submit_stream c n =
    for i = 0 to n - 1 do
      Nvsc_dramsim.Controller.submit_ref c ~addr:(i * 64 * 17)
        ~op:(if i land 3 = 0 then Access.Write else Access.Read)
    done
  in
  let () =
    let n = if quick then 100_000 else 400_000 in
    let tech = Nvsc_nvram.Technology.get Nvsc_nvram.Technology.DDR3 in
    let dt =
      best_of reps (fun () ->
          let c = Nvsc_dramsim.Controller.create ~tech () in
          submit_stream c n;
          Nvsc_dramsim.Controller.flush c)
    in
    report "controller.submit" "ns/txn" (dt *. 1e9 /. float_of_int n)
  in

  (* The per-technology work of [Memory_system.compare_technologies]: a
     fresh controller, the whole stream, then [stats] (percentiles
     included).  [value] is the mean over the paper's four technologies;
     [extra] has each one. *)
  let () =
    let n = if quick then 100_000 else 400_000 in
    let per_tech =
      List.map
        (fun (tech : Nvsc_nvram.Technology.t) ->
          let dt =
            best_of reps (fun () ->
                let c = Nvsc_dramsim.Controller.create ~tech () in
                submit_stream c n;
                ignore (Nvsc_dramsim.Controller.stats c))
          in
          (tech.Nvsc_nvram.Technology.name, dt *. 1e9 /. float_of_int n))
        Nvsc_nvram.Technology.paper_set
    in
    let mean =
      List.fold_left (fun acc (_, v) -> acc +. v) 0. per_tech
      /. float_of_int (List.length per_tech)
    in
    report "controller.submit+stats" "ns/txn" mean ~extra:per_tech
  in

  (* Bank-sharded controller decomposition (ISSUE 10 tentpole): serial
     FCFS submit vs the classify/replay pipeline.  The team overlaps the
     stages — slice [i] replays on its own domain while the workers
     classify slice [i+1] — so on a host with one core per domain the
     steady-state cost per transaction is the slower stage:
     [value] = max(classify critical path, replay).  Both stage costs
     are sampled in isolation on this domain (probes for the workers,
     [replay_pending] for the merge/replay), interleaved
     rep by rep with the serial baseline; [sum_ns_per_txn] is the
     no-overlap bound and [wall_ns_per_txn] the whole team end to end
     on THIS host. *)
  let () =
    let module C = Nvsc_dramsim.Controller in
    let module CT = Nvsc_dramsim.Controller_team in
    let n = if quick then 100_000 else 400_000 in
    let tech = Nvsc_nvram.Technology.get Nvsc_nvram.Technology.DDR3 in
    (* the dram-team differential's mixed stream: row-local sweeps plus a
       pseudo-random scatter, reads and writes *)
    let batch = Sink.Batch.create n in
    let lcg = ref 424242 in
    let next () =
      lcg := (!lcg * 1103515245) + 12345;
      (!lcg lsr 11) land 0xFFFFFFF
    in
    for i = 0 to n - 1 do
      let addr =
        if i land 7 < 5 then (i / 8 * 64 * 17) land 0x3FFFFC0
        else next () land 0x7FFFFC0
      in
      Sink.Batch.set batch i ~addr ~size:64
        ~op:(if i land 5 = 0 then Access.Write else Access.Read)
    done;
    let fn = float_of_int n in
    let serial_sample () =
      let c = C.create ~scheduler:C.Fcfs ~tech () in
      timed (fun () ->
          C.consume c batch ~first:0 ~n;
          C.flush c)
    in
    List.iter
      (fun shards ->
        ignore (serial_sample ());
        let serial = ref infinity and wall = ref infinity in
        let crit = ref infinity and replay = ref infinity in
        for _ = 1 to reps do
          (* drain accumulated garbage so a major collection triggered by
             an earlier sample's dead team doesn't land inside a timed
             region *)
          Gc.major ();
          let s = serial_sample () in
          if s < !serial then serial := s;
          (* classify critical path: probe each worker inline on this
             domain, one at a time, so one-core timesharing behind the
             slice barrier cannot inflate the per-worker busy time *)
          let team = CT.create ~shards ~tech () in
          Gc.major ();
          let c = ref 0. in
          for sid = 0 to shards - 1 do
            let t0 = Nvsc_obs.Clock.now_ns () in
            CT.classify_probe team ~sid batch ~first:0 ~n ~base:0;
            let dt = float_of_int (Nvsc_obs.Clock.now_ns () - t0) in
            if dt > !c then c := dt
          done;
          if !c < !crit then crit := !c;
          (* the probes produced the complete event set; [replay_pending]
             is exactly the replay stage — merge plus
             [issue_classified] — with no stats construction attached *)
          CT.finish team;
          Gc.major ();
          let t1 = Nvsc_obs.Clock.now_ns () in
          CT.replay_pending team;
          let r = float_of_int (Nvsc_obs.Clock.now_ns () - t1) in
          if r < !replay then replay := r
        done;
        (* whole team end to end on THIS host, workers on real domains —
           sampled outside the stage loop so its garbage and domain
           churn stay out of the stage timings *)
        for _ = 1 to 2 do
          let team2 = CT.create ~shards ~tech () in
          let t0 = Nvsc_obs.Clock.now_ns () in
          CT.consume team2 batch ~first:0 ~n;
          ignore (CT.stats team2);
          let w = float_of_int (Nvsc_obs.Clock.now_ns () - t0) in
          if w < !wall then wall := w
        done;
        let projected = Float.max !crit !replay in
        report
          (Printf.sprintf "dram:submit-sharded-%d" shards)
          "ns/txn" (projected /. fn)
          ~extra:
            [
              ("classify_crit_ns_per_txn", !crit /. fn);
              ("replay_ns_per_txn", !replay /. fn);
              ("sum_ns_per_txn", (!crit +. !replay) /. fn);
              ("wall_ns_per_txn", !wall /. fn);
              ("serial_ns_per_txn", !serial /. fn);
              ("projected_speedup", !serial /. projected);
              ("txns", fn);
            ])
      [ 1; 2; 4 ]
  in

  (* counter recording (dense per-object slots) *)
  let () =
    let c = Nvsc_memtrace.Counters.create () in
    Nvsc_memtrace.Counters.set_iteration c 1;
    let iters = if quick then 2_000_000 else 10_000_000 in
    let dt =
      best_of reps (fun () ->
          for i = 1 to iters do
            Nvsc_memtrace.Counters.record c ~obj_id:(i land 7)
              ~op:(if i land 1 = 0 then Access.Read else Access.Write)
          done)
    in
    report "counters.record" "ns/op" (dt *. 1e9 /. float_of_int iters)
  in

  (* end-to-end: the scavenger pipeline at the bechamel bench's quick
     configuration (bench/main.ml "pipeline:scavenger-gtc") *)
  let () =
    let app = Option.get (Nvsc_apps.Apps.find "gtc") in
    let config =
      Nvsc_core.Scavenger.Config.(
        default |> with_scale 0.1 |> with_iterations 1)
    in
    let dt =
      best_of (if quick then 5 else 9) (fun () ->
          ignore (Nvsc_core.Scavenger.run config app))
    in
    report "pipeline.scavenger-gtc" "ms" (dt *. 1e3)
  in

  write_json out ~quick;
  Printf.printf "wrote %s\n" out

let () =
  let quick = ref false and out = ref "BENCH_kernels.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "kernels: unknown argument %s (usage: [--quick] [--out FILE])\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  run ~quick:!quick ~out:!out
