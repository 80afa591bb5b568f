(** One cell of an experiment matrix: an (application × analysis kind ×
    configuration) point, its execution, and its serialized form.

    A cell is the sweep engine's unit of scheduling and of caching: every
    cell runs an isolated {!Nvsc_core.Scavenger} pipeline (no state shared
    with other cells, so cells may execute on any worker domain in any
    order), returns a plain-data payload, and owns a content digest that
    keys the on-disk result cache.  Payload codecs round-trip exactly: a
    decoded payload renders byte-identically to a fresh one. *)

module Json = Nvsc_util.Json

type kind =
  | Objects  (** per-object metrics, stack summary, usage variance *)
  | Power  (** cache-filtered trace replayed through the power simulator *)
  | Perf  (** figure-12 latency-sensitivity replay *)
  | Place  (** static hybrid DRAM/NVRAM placement plan *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

type spec = {
  app : string;
  kind : kind;
  scale : float;
  iterations : int;
  tech : Nvsc_nvram.Technology.tech option;
      (** NVRAM technology of a [Place] cell's hybrid; [None] elsewhere *)
  trace_digest : string option;
      (** content digest of the NVT trace this cell replays instead of
          re-running the application; [None] for a live cell.  Folded into
          {!digest}, so trace-fed and live results never share a cache
          entry and different trace contents never collide. *)
}

val spec_to_json : spec -> Json.t
val spec_of_json : Json.t -> spec

val code_version : string
(** Salt folded into every digest; bump when the payload schema or the
    simulation semantics change so stale cache entries stop matching. *)

val digest : spec -> string
(** Hex content digest of [code_version] plus every spec field — the
    cache key.  Any field change changes the digest. *)

(** {1 Payloads} *)

type app_info = {
  description : string;
  input_description : string;
  paper_footprint_mb : float;
  footprint_bytes : int;
  total_main_refs : int;
}

type objects_payload = {
  info : app_info;
  summary : Nvsc_core.Stack_analysis.summary;
  distribution : Nvsc_core.Stack_analysis.distribution;
  report : Nvsc_core.Object_analysis.report;
  cdf : Nvsc_core.Usage_variance.cdf_point list;
  variance : Nvsc_core.Usage_variance.variance;
  untouched_fraction : float;
  pipeline : Nvsc_appkit.Ctx.pipeline_stats;
}

type power_row = {
  tech_name : string;
  avg_power_w : float;
  elapsed_ns : float;
  row_hit_rate : float;
  bandwidth_gbs : float;
  normalized : float;
}

type power_payload = {
  p_info : app_info;
  trace_length : int;
  trace_reads : int;
  trace_writes : int;
  l1_miss_rate : float;
  l2_miss_rate : float;
  power_rows : power_row list;
  p_pipeline : Nvsc_appkit.Ctx.pipeline_stats;
}

type perf_row = {
  perf_tech_name : string;
  latency_ns : float;
  runtime_ns : float;
  normalized_runtime : float;
}

type place_payload = {
  place_tech_name : string;
  place_footprint_bytes : int;
  nvram_items : Nvsc_placement.Item.t list;
  assessment : Nvsc_placement.Hybrid_memory.assessment;
}

type payload =
  | Objects_result of objects_payload
  | Power_result of power_payload
  | Perf_result of perf_row list
  | Place_result of place_payload

val payload_to_json : payload -> Json.t
val payload_of_json : Json.t -> payload
(** Raises {!Nvsc_util.Json.Parse_error} on a foreign or stale shape. *)

val execute : ?trace:string -> spec -> payload
(** Run the cell.  Re-entrant and domain-safe: builds a fresh context,
    touches no global mutable state.  Raises [Invalid_argument] on an
    unknown application name.

    With [trace] (a path to an [.nvt] file, see
    {!Nvsc_memtrace.Trace_codec}), the cell streams the recorded
    reference stream instead of re-running the application — one recorded
    trace feeds every analysis kind.  If the spec pins a [trace_digest],
    the file's digest must match ([Invalid_argument] otherwise); a spec
    that pins a digest cannot execute without a trace. *)

(** {1 Payload builders}

    Each builds one payload from a result the caller already holds, with
    no span of its own, so [nvscav] renders its one run (or its one trace
    replay) through the same payloads a cell computes. *)

val objects_payload_of_result : Nvsc_core.Scavenger.result -> objects_payload

val power_payload_of_result :
  ?jobs:int -> Nvsc_core.Scavenger.result -> power_payload
(** Replays the result's cache-filtered trace (the result must carry one)
    through every paper technology, on up to [jobs] domains (default 1,
    at most one per technology); the payload is the same for every
    [jobs]. *)

val power_payload_of_trace :
  ?jobs:int -> Nvsc_memtrace.Trace_log.t -> power_payload
(** As {!power_payload_of_result} for a bare main-memory trace (e.g. a
    DRAMSim2 file).  A bare trace records no run, so [p_info], the cache
    miss rates and [p_pipeline] are zero. *)

val perf_rows_of_points : Nvsc_cpusim.Sensitivity.point list -> perf_row list

val place_payload_of_result :
  tech:Nvsc_nvram.Technology.t -> Nvsc_core.Scavenger.result -> place_payload
(** Static placement over a hybrid of twice the result's footprint in
    each half, the NVRAM half in [tech]. *)

(** {1 Reports}

    The only report printers: the [nvscav] subcommands, the sweep engine
    and the serve daemon all render payloads through these, so their
    reports are byte-identical by construction.  Each printer starts at
    column 0 and ends with a newline, so concatenated sections equal one
    continuous report. *)

val pp_payload : Format.formatter -> payload -> unit
(** A payload's full report: what [nvscav analyze] (objects), [power],
    [perf] and [place] print, and [replay --kind] of the same kind. *)

val pp_run_section : Format.formatter -> payload -> unit
(** The shorter section [nvscav run] prints for each of its objects, power
    and place payloads: stack summary and object report; trace line and
    normalized power; placement assessment.  Raises [Invalid_argument] on
    a perf payload. *)

val render : Format.formatter -> spec -> payload -> unit
(** The cell's section of an aggregated sweep report: a header line naming
    the spec, then {!pp_payload}. *)
