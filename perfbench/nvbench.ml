(* NV-Scavenger's benchmark driver.  Run from the root of a checkout,
   through perfbench/run.sh (which builds it):

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     sh perfbench/run.sh --self-test
     sh perfbench/run.sh --capture

   --trace 0 spawns the workload's real command again and again for S
   seconds and reports the end-to-end metrics; --trace 1 runs the same
   pipeline in-process with every layer call timed (Layers) and reports
   the per-layer metrics.  Both check every output against the committed
   references.  The last stdout line is the result object; the line
   before it is the ledger row.  See perfbench/README.md. *)

module Json = Nvsc_util.Json

let work = ".perfbench"
let refdir = "perfbench/reference"
let nvscav = "_build/default/bin/nvscav.exe"
let experiments = "_build/default/bin/experiments.exe"
let trace_file = Filename.concat work "gtc.nvt"

(* --- metrics ------------------------------------------------------------- *)

let end_to_end =
  [ ("wall_s", "s"); ("ns_per_ref", "ns"); ("cpu_s", "s");
    ("peak_heap_mb", "MB"); ("setup_s", "s") ]

let tech_names =
  Array.map
    (fun (t : Nvsc_nvram.Technology.t) -> String.lowercase_ascii t.name)
    Layers.techs

let per_layer =
  [ ("appkit.self_s", "s"); ("appkit.ns_per_ref", "ns");
    ("appkit.refs", "count"); ("appkit.alloc_words_per_ref", "words");
    ("memtrace.decode.ns_per_ref", "ns");
    ("memtrace.decode.refs_per_slice", "count");
    ("memtrace.encode.ns_per_ref", "ns"); ("memtrace.bytes_per_ref", "B");
    ("core.attribution.ns_per_ref", "ns");
    ("cachesim.self_s", "s"); ("cachesim.ns_per_ref", "ns");
    ("cachesim.calls", "count"); ("cachesim.refs_per_call", "count");
    ("cachesim.mem_txns", "count"); ("cachesim.l1_miss_ratio", "ratio");
    ("cachesim.l2_miss_ratio", "ratio");
    ("cachesim.alloc_words_per_ref", "words") ]
  @ List.concat_map
      (fun t ->
        [ ("dramsim." ^ t ^ ".self_s", "s"); ("dramsim." ^ t ^ ".ns_per_txn", "ns") ])
      (Array.to_list tech_names)
  @ [ ("dramsim.txns", "count"); ("dramsim.row_hit_ratio", "ratio");
      ("dramsim.alloc_words_per_txn", "words") ]
  @ List.map (fun t -> ("cpusim." ^ t ^ ".self_s", "s")) (Array.to_list tech_names)
  @ [ ("cpusim.ns_per_ref", "ns"); ("placement.self_s", "s");
      ("sweep.cells", "count"); ("sweep.cell_s", "s");
      ("sweep.parallel_eff", "ratio"); ("sweep.pool.queue_wait_ms", "ms");
      ("other.self_s", "s"); ("trace.timer_s", "s");
      ("trace.coverage", "ratio");
      ("trace.overhead_ratio", "ratio"); ("host.calib_ms", "ms");
      ("threads.peak", "count"); ("fail_ratio", "ratio") ]

(* --- statistics ---------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean of the middle 80%.  On a shared host one command's wall time is
   bimodal, so the median of a run jumps between the two modes from run
   to run; the trimmed mean follows their mix smoothly and still drops
   one-off stalls.  It is also not stuck on the 10 ms tick [Unix.times]
   counts CPU time in. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let k = n / 10 in
  let sum = ref 0. in
  for i = k to n - k - 1 do sum := !sum +. a.(i) done;
  !sum /. float_of_int (n - (2 * k))

(* A fixed CPU loop: the host's speed at the start and end of a run, so
   a ledger row shows when the machine itself drifted. *)
let calib_ms () =
  let t0 = Clock.now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  (Clock.now () -. t0) *. 1e3

(* --- workloads ----------------------------------------------------------- *)

type workload = {
  name : string;
  prog : string;
  args : string list;
  reference : string;  (** file holding the command's expected stdout *)
  budget : int;  (** peak threads the command may use *)
  traced : Layers.t -> string;  (** the in-process pass; its report *)
}

let record_args = [ "record"; "gtc"; "-o"; trace_file ]
let record_reference = Filename.concat refdir "replay-gtc.record"
let refs_file = Filename.concat refdir "refs"

let fail fmt = Printf.ksprintf failwith fmt

let workloads =
  [ { name = "run-cam"; prog = nvscav; args = [ "run"; "cam" ];
      reference = Filename.concat refdir "run-cam.stdout"; budget = 1;
      traced = (fun acc -> Layers.live_run acc "cam") };
    { name = "replay-gtc"; prog = nvscav; args = [ "replay"; trace_file ];
      reference = Filename.concat refdir "replay-gtc.stdout"; budget = 1;
      traced =
        (fun acc ->
          let s = Layers.encode acc ~path:trace_file (Layers.find_app "gtc") in
          if Layers.render_record ~path:trace_file s
             <> Spawn.read_file record_reference
          then fail "record summary differs from %s" record_reference;
          Layers.replay acc trace_file) };
    { name = "experiments-quick"; prog = experiments;
      args = [ "quick"; "no-ext"; "-j"; "2" ];
      reference = "test/golden/experiments-quick.txt"; budget = 4;
      traced = Layers.experiments } ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* References processed by one command, as captured: the denominator of
   ns_per_ref. *)
let committed_refs name =
  Spawn.read_file refs_file |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; count ] when n = name -> int_of_string_opt count
         | _ -> None)
  |> function
  | Some n -> n
  | None -> failwith ("no reference count for " ^ name ^ " in " ^ refs_file)

(* Build check: a no-op when everything is built, as it is after run.sh. *)
let build_check () =
  let r =
    Spawn.run ~work "dune"
      [ "build"; "--root"; "."; "./bin/nvscav.exe"; "./bin/experiments.exe";
        "./perfbench/nvbench.exe" ]
  in
  if not r.ok then fail "dune build failed"

(* replay-gtc's set-up writes the trace its command reads. *)
let record_trace () =
  let expect = Spawn.read_file record_reference in
  let r = Spawn.run ~work ~expect nvscav record_args in
  if not r.ok then fail "nvscav record gtc: unexpected output or exit code"

(* Build check, reference capture and, for replay-gtc, the recording. *)
let setup w =
  build_check ();
  let expect = Spawn.read_file w.reference in
  if w.name = "replay-gtc" then record_trace ();
  expect

(* --- one run ------------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  max_threads : int;
  samples : (string * float list) list;  (** per-command values, for the ledger *)
}

let elapsed_since t0 = Clock.now () -. t0

(* Commands (after one warm-up) until [seconds] have passed and at least
   [min_runs] were timed. *)
let spawn_loop w ~expect ~seconds ~min_runs =
  let warm = Spawn.run ~work ~expect w.prog w.args in
  let t0 = Clock.now () in
  let rec go acc n =
    if n >= min_runs && elapsed_since t0 >= seconds then List.rev acc
    else go (Spawn.run ~work ~expect w.prog w.args :: acc) (n + 1)
  in
  (warm, go [] 0)

let untraced w ~seconds =
  let setups = List.init 3 (fun _ -> Layers.wall (fun () -> setup w)) in
  let expect = fst (List.hd setups) in
  let warm, runs = spawn_loop w ~expect ~seconds ~min_runs:3 in
  let good = List.filter (fun (r : Spawn.run) -> r.ok) runs in
  let pick = if good = [] then runs else good in
  let wall = trimmed_mean (List.map (fun (r : Spawn.run) -> r.wall_s) pick) in
  let all = warm :: runs in
  let failed = List.length (List.filter (fun (r : Spawn.run) -> not r.ok) all) in
  {
    correct = failed = 0;
    attempted = List.length all;
    failed;
    metrics =
      [ ("wall_s", wall);
        ("ns_per_ref", wall *. 1e9 /. float_of_int (committed_refs w.name));
        ("cpu_s", trimmed_mean (List.map (fun (r : Spawn.run) -> r.cpu_s) pick));
        (* the highest any command reached: with two domains the exit
           report's peak varies from process to process *)
        ("peak_heap_mb",
          List.fold_left (fun m (r : Spawn.run) -> Float.max m r.heap_mb) 0. pick);
        ("setup_s", median (List.map snd setups)) ];
    max_threads = List.fold_left (fun m (r : Spawn.run) -> max m r.threads) 0 all;
    samples =
      [ ("wall_s", List.map (fun (r : Spawn.run) -> r.wall_s) runs);
        ("cpu_s", List.map (fun (r : Spawn.run) -> r.cpu_s) runs) ];
  }

let ratio a b = if b = 0. then 0. else a /. b
let per a n = if n = 0 then 0. else a /. float_of_int n

(* Per-layer figures of one traced pass. *)
let layer_metrics (acc : Layers.t) =
  let sum_s cs = Array.fold_left (fun s (c : Layers.clock) -> s +. c.s) 0. cs in
  let sum_words cs =
    Array.fold_left (fun s (c : Layers.clock) -> s +. c.words) 0. cs
  in
  let dram_s = sum_s acc.dram and cpu_s = sum_s acc.cpusim in
  let covered =
    acc.appkit.s +. acc.cachesim.s +. acc.decode.s +. acc.attribution.s
    +. dram_s +. cpu_s +. acc.placement.s
  in
  [ ("appkit.self_s", acc.appkit.s);
    ("appkit.ns_per_ref", per (acc.appkit.s *. 1e9) acc.app_refs);
    ("appkit.refs", float_of_int acc.app_refs);
    ("appkit.alloc_words_per_ref", per acc.appkit.words acc.app_refs);
    ("memtrace.decode.ns_per_ref", per (acc.decode.s *. 1e9) acc.decode_refs);
    ("memtrace.decode.refs_per_slice", per (float_of_int acc.decode_refs) acc.decode_slices);
    ("memtrace.encode.ns_per_ref", per (acc.encode.s *. 1e9) acc.encode_refs);
    ("memtrace.bytes_per_ref", per (float_of_int acc.encode_bytes) acc.encode_refs);
    ("core.attribution.ns_per_ref", per (acc.attribution.s *. 1e9) acc.attributed_refs);
    ("cachesim.self_s", acc.cachesim.s);
    ("cachesim.ns_per_ref", per (acc.cachesim.s *. 1e9) acc.filter_refs);
    ("cachesim.calls", float_of_int acc.filter_calls);
    ("cachesim.refs_per_call", per (float_of_int acc.filter_refs) acc.filter_calls);
    ("cachesim.mem_txns", float_of_int acc.mem_txns);
    ("cachesim.l1_miss_ratio", per (float_of_int acc.l1_misses) acc.l1_accesses);
    ("cachesim.l2_miss_ratio", per (float_of_int acc.l2_misses) acc.l2_accesses);
    ("cachesim.alloc_words_per_ref", per acc.cachesim.words acc.filter_refs) ]
  @ List.concat
      (List.mapi
         (fun i t ->
           [ ("dramsim." ^ t ^ ".self_s", acc.dram.(i).s);
             ("dramsim." ^ t ^ ".ns_per_txn", per (acc.dram.(i).s *. 1e9) acc.dram_txns) ])
         (Array.to_list tech_names))
  @ [ ("dramsim.txns", float_of_int acc.dram_txns);
      ("dramsim.row_hit_ratio", per (float_of_int acc.row_hits) acc.row_accesses);
      ("dramsim.alloc_words_per_txn",
        per (sum_words acc.dram) (acc.dram_txns * Array.length acc.dram)) ]
  @ List.mapi (fun i t -> ("cpusim." ^ t ^ ".self_s", acc.cpusim.(i).s))
      (Array.to_list tech_names)
  @ [ ("cpusim.ns_per_ref", per (cpu_s *. 1e9) acc.cpu_refs);
      ("placement.self_s", acc.placement.s);
      ("sweep.cells", float_of_int acc.sweep_cells);
      ("sweep.cell_s", acc.cell_s);
      ("sweep.parallel_eff",
        ratio acc.cell_s (float_of_int acc.sweep_jobs *. acc.sweep_wall));
      ("sweep.pool.queue_wait_ms", acc.queue_wait_ms);
      ("other.self_s", acc.wall -. acc.timer.s -. covered);
      ("trace.timer_s", acc.timer.s);
      ("trace.coverage", ratio covered (acc.wall -. acc.timer.s)) ]

let traced w ~seconds =
  Layers.calibrate ();
  let expect = setup w in
  let warm, runs = spawn_loop w ~expect ~seconds:0. ~min_runs:3 in
  let untraced_wall = trimmed_mean (List.map (fun (r : Spawn.run) -> r.wall_s) runs) in
  let refs = committed_refs w.name in
  let t0 = Clock.now () in
  let rec go acc =
    if acc <> [] && elapsed_since t0 >= seconds then List.rev acc
    else begin
      let layers = Layers.create () in
      let ok =
        match w.traced layers with
        | report -> String.equal report expect
                    && layers.app_refs + layers.decode_refs = refs
        | exception e ->
          prerr_endline ("perfbench: traced " ^ w.name ^ ": " ^ Printexc.to_string e);
          false
      in
      go ((ok, layers) :: acc)
    end
  in
  let passes = go [] in
  let commands = warm :: runs in
  let failed =
    List.length (List.filter (fun (r : Spawn.run) -> not r.ok) commands)
    + List.length (List.filter (fun (ok, _) -> not ok) passes)
  in
  let attempted = List.length commands + List.length passes in
  let per_pass =
    List.map
      (fun (_, (l : Layers.t)) ->
        layer_metrics l @ [ ("trace.overhead_ratio", ratio l.wall untraced_wall) ])
      passes
  in
  let names = List.map fst (List.hd per_pass) in
  let max_threads =
    List.fold_left (fun m (r : Spawn.run) -> max m r.threads) 0 commands
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics =
      List.map (fun n -> (n, median (List.map (List.assoc n) per_pass))) names
      @ [ ("threads.peak", float_of_int max_threads);
          ("fail_ratio", float_of_int failed /. float_of_int attempted) ];
    max_threads;
    samples = [ ("wall_s", List.map (fun (r : Spawn.run) -> r.wall_s) runs) ];
  }

(* --- output -------------------------------------------------------------- *)

let units = end_to_end @ per_layer

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (n, v) ->
         let v = if Float.is_finite v then v else 0. in
         (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (List.assoc n units)) ]))
       metrics)

(* The checkout's commit, when it is a git work tree with a loose ref. *)
let commit () =
  let read p = try String.trim (Spawn.read_file p) with Sys_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
    match read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
    | "" -> "unknown"
    | sha -> sha)
  | sha -> sha

let ledger_row ~workload ~seed ~seconds ~trace ~calib o =
  Json.Obj
    [ ("ledger", Json.Str "nv-scavenger-perfbench");
      ("commit", Json.Str (commit ()));
      ("host", Json.Str (Unix.gethostname ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workload", Json.Str workload); ("seed", Json.Int seed);
      ("seconds", Json.Int seconds); ("trace", Json.Int trace);
      ("host.calib_ms", Json.List (List.map (fun c -> Json.Float c) calib));
      ("correct", Json.Bool o.correct); ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed); ("metrics", metrics_json o.metrics);
      ("samples",
        Json.Obj
          (List.map
             (fun (n, vs) -> (n, Json.List (List.map (fun v -> Json.Float v) vs)))
             o.samples)) ]

let result_line o =
  Json.Obj
    [ ("correct", Json.Bool o.correct); ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed); ("metrics", metrics_json o.metrics) ]

let measure w ~seconds ~trace =
  let c0 = calib_ms () in
  let o = if trace then traced w ~seconds else untraced w ~seconds in
  let c1 = calib_ms () in
  let o =
    if trace then
      { o with metrics = o.metrics @ [ ("host.calib_ms", (c0 +. c1) /. 2.) ] }
    else o
  in
  (o, [ c0; c1 ])

(* --- self-test ----------------------------------------------------------- *)

let declared kind =
  Json.of_string (Spawn.read_file "BENCHMARK.json")
  |> Json.member kind |> Json.to_list
  |> List.map (fun m ->
         (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))

let sorted l = List.sort compare l

let self_test () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  expect "end_to_end metrics match BENCHMARK.json"
    (sorted (declared "end_to_end") = sorted end_to_end);
  expect "per_layer metrics match BENCHMARK.json"
    (sorted (declared "per_layer") = sorted per_layer);
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o, _ = measure w ~seconds:1. ~trace in
          let mode = if trace then "traced" else "untraced" in
          let names = sorted (List.map fst o.metrics) in
          expect (Printf.sprintf "%s %s: correct, no failures" w.name mode)
            (o.correct && o.failed = 0);
          expect (Printf.sprintf "%s %s: prints every declared metric" w.name mode)
            (names = sorted (List.map fst (if trace then per_layer else end_to_end)));
          expect
            (Printf.sprintf "%s %s: peak threads %d within budget %d" w.name mode
               o.max_threads w.budget)
            (o.max_threads <= w.budget);
          if trace then begin
            let cov = List.assoc "trace.coverage" o.metrics in
            expect
              (Printf.sprintf "%s: layer self times cover %.1f%% of traced wall"
                 w.name (100. *. cov))
              (cov >= 0.9)
          end)
        [ false; true ])
    workloads;
  (* a corrupted reference must fail every command *)
  let w = Option.get (find_workload "run-cam") in
  let expect_bad =
    let s = Bytes.of_string (Spawn.read_file w.reference) in
    Bytes.set s 0 (if Bytes.get s 0 = '#' then '%' else '#');
    Bytes.to_string s
  in
  let warm, runs = spawn_loop w ~expect:expect_bad ~seconds:0. ~min_runs:2 in
  let all = warm :: runs in
  let bad = List.length (List.filter (fun (r : Spawn.run) -> not r.ok) all) in
  expect
    (Printf.sprintf "corrupted reference: fail_ratio %d/%d = 1" bad
       (List.length all))
    (bad = List.length all);
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "self-test passed"

(* --- reference capture --------------------------------------------------- *)

(* Rewrite the committed references from the current tree.  Only for a
   change that is meant to alter simulated output. *)
let capture () =
  build_check ();
  let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  let stdout_of prog args =
    let r = Spawn.run ~work prog args in
    if not r.ok then fail "%s %s failed" prog (String.concat " " args);
    r.stdout
  in
  write (Filename.concat refdir "run-cam.stdout") (stdout_of nvscav [ "run"; "cam" ]);
  let live_gtc = stdout_of nvscav [ "run"; "gtc" ] in
  write record_reference (stdout_of nvscav record_args);
  if stdout_of nvscav [ "replay"; trace_file ] <> live_gtc then
    fail "replay of the recorded gtc trace differs from nvscav run gtc";
  write (Filename.concat refdir "replay-gtc.stdout") live_gtc;
  let experiments_w = Option.get (find_workload "experiments-quick") in
  if stdout_of experiments experiments_w.args <> Spawn.read_file experiments_w.reference
  then fail "experiments quick differs from %s" experiments_w.reference;
  let counts =
    List.map
      (fun w ->
        let l = Layers.create () in
        ignore (w.traced l);
        Printf.sprintf "%s %d\n" w.name (l.app_refs + l.decode_refs))
      workloads
  in
  write refs_file (String.concat "" counts);
  print_endline "references captured"

(* --- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let mode = ref `Measure in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N recorded in the ledger row; the inputs are fixed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " check the benchmark itself");
      ("--capture", Arg.Unit (fun () -> mode := `Capture), " rewrite the references") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nvbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  match !mode with
  | `Self_test -> self_test ()
  | `Capture -> capture ()
  | `Measure ->
    let w =
      match find_workload !workload with
      | Some w -> w
      | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    in
    if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace 0|1"; exit 2);
    let o, calib =
      measure w ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
    in
    print_endline
      (Json.to_string
         (ledger_row ~workload:w.name ~seed:!seed ~seconds:!seconds ~trace:!trace
            ~calib o));
    print_endline (Json.to_string (result_line o))
