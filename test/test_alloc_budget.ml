(* Allocation budgets of the per-reference hot paths, in minor words.

   Each of these layers runs once per memory reference, so a stray
   closure, option or boxed float multiplies into millions of words.  The
   front-end budgets also depend on the build: the [@inline] accessors
   (Farray.get/set, Ctx.read_addr) only keep floats unboxed when modules
   are compiled without -opaque, as the workspace's release profile does.
   Under [--profile dev] the front-end cases fail by design. *)

module Ctx = Nvsc_appkit.Ctx
module Sink = Nvsc_memtrace.Sink
module Access = Nvsc_memtrace.Access
module Trace_codec = Nvsc_memtrace.Trace_codec
module Perf_model = Nvsc_cpusim.Perf_model

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_budget what ~words ~per ~budget =
  let r = words /. float_of_int per in
  if r > budget then
    Alcotest.failf "%s: %.3f minor words per reference, budget %.2f" what r
      budget

(* --- instrumented front end ---------------------------------------------- *)

(* Minor words per reference of [A.run] at scale 0.05, one iteration, into
   a null sink: the app's own code plus Ctx emission and attribution.
   Fixed set-up (object tables, small arrays) is included, which is why
   the smallest app, minife, has the largest budget.  Each budget sits
   below what the same app allocates when built with -opaque. *)
let front_end_budgets =
  [
    ("nek5000", 0.5);
    ("cam", 0.75);
    ("gtc", 1.0);
    ("s3d", 1.0);
    ("minife", 2.0);
    ("minimd", 0.75);
  ]

let test_front_end name budget () =
  let (module A : Nvsc_apps.Workload.APP) =
    Option.get (Nvsc_apps.Apps.find name)
  in
  let ctx = Ctx.create () in
  Ctx.add_sink ctx (Sink.null ());
  let words = minor_words (fun () -> A.run ~scale:0.05 ctx ~iterations:1) in
  check_budget (name ^ " front end") ~words ~per:(Ctx.total_references ctx)
    ~budget

(* --- NVT codec ----------------------------------------------------------- *)

(* Any per-reference allocation costs at least two words (a header and a
   field), so a budget of one word per reference admits none; chunk
   sealing and per-chunk decoding amortise to far less. *)
let test_codec () =
  Test_trace_codec.with_tmp @@ fun path ->
  let total = 200_000 in
  let w =
    Trace_codec.Writer.create ~chunk_capacity:4096 ~path
      ~meta:(Test_trace_codec.meta ()) ()
  in
  let rng = ref 123456789 in
  let words =
    minor_words (fun () ->
        for i = 0 to total - 1 do
          rng := ((!rng * 1103515245) + 12345) land 0x3FFF_FFFF;
          Trace_codec.Writer.add_ref w ~addr:!rng ~size:8
            ~op:(if i land 3 = 0 then Access.Write else Access.Read)
            ~obj_id:(i mod 64)
        done)
  in
  ignore (Trace_codec.Writer.finish w () : Trace_codec.summary);
  check_budget "Writer.add_ref" ~words ~per:total ~budget:1.;
  let r = Trace_codec.Reader.open_ path in
  Fun.protect ~finally:(fun () -> Trace_codec.Reader.close r) @@ fun () ->
  let seen = ref 0 in
  let words =
    minor_words (fun () ->
        Trace_codec.stream r
          ~on_refs:(fun _ ~obj_ids:_ ~first:_ ~n -> seen := !seen + n)
          ())
  in
  Alcotest.(check int) "all refs decoded" total !seen;
  check_budget "Trace_codec.stream" ~words ~per:total ~budget:1.

(* --- performance model --------------------------------------------------- *)

(* One step is a run of plain instructions and an L1-hitting load on a
   TLB-resident page: the common case of every perf replay. *)
let test_perf_model_step () =
  let m = Perf_model.create ~mem_latency_ns:50. () in
  Perf_model.access_raw m ~addr:4096 ~size:8 ~op:Access.Read;
  let steps = 100_000 in
  let words =
    minor_words (fun () ->
        for _ = 1 to steps do
          Perf_model.instructions m 3;
          Perf_model.access_raw m ~addr:4096 ~size:8 ~op:Access.Read
        done)
  in
  let r = Perf_model.report m in
  Alcotest.(check int) "every step hit L1" steps r.Perf_model.l1_hits;
  check_budget "Perf_model step" ~words ~per:steps ~budget:1.

let suite =
  List.map
    (fun (name, budget) ->
      Alcotest.test_case
        (Printf.sprintf "%s front end <= %.2f words/ref" name budget)
        `Quick (test_front_end name budget))
    front_end_budgets
  @ [
      Alcotest.test_case "NVT codec <= 1 word/ref" `Quick test_codec;
      Alcotest.test_case "perf-model step <= 1 word" `Quick
        test_perf_model_step;
    ]
