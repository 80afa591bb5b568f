(** The Figure-12 experiment: replay one application workload against the
    memory latencies of the candidate technologies and report runtimes
    normalised to DRAM.

    Per the paper's §V assumptions, a single latency is used for both reads
    and writes (each technology's write latency — a performance lower
    bound) and main memory is wholly replaced by the technology under
    test. *)

type point = {
  tech : Nvsc_nvram.Technology.t;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;  (** relative to the DDR3 run *)
  report : Perf_model.report;
}

val run_shared :
  ?techs:Nvsc_nvram.Technology.t list ->
  ?asymmetric:bool ->
  replay:(Perf_model.t -> unit) ->
  unit ->
  point list
(** The figure-12 points from one pass: a single model with one latency
    lane per technology (see {!Perf_model.create_lanes}), driven by one
    call of [replay model] ({!Perf_model.instructions} /
    {!Perf_model.consume}).  [techs] defaults to the paper's four
    technologies and must include DDR3, the normalisation baseline;
    without it, [Invalid_argument "Sensitivity.run_shared: DDR3 baseline
    required"] is raised before [replay] is called.  Points come in
    [techs] order and are equal (float [=]) to {!run}'s.

    [asymmetric] (default false) removes the paper's read-=-write
    assumption: reads use each technology's read latency and writes are
    posted at its write latency through the write buffer (see
    {!Perf_model.create}), quantifying how conservative the paper's
    lower bound is. *)

val run :
  ?techs:Nvsc_nvram.Technology.t list ->
  ?asymmetric:bool ->
  replay:(Perf_model.t -> unit) ->
  unit ->
  point list
(** The per-technology oracle for {!run_shared}: one one-lane model and one
    call of [replay] per technology, so [replay] must drive the identical
    stream on every invocation.  Same arguments, result and DDR3 check
    (raising ["Sensitivity.run: DDR3 baseline required"] before any
    replay) as {!run_shared}; it takes k times the work, and is kept as
    the reference the shared pass is tested against and for callers that
    time each technology's pass on its own. *)
