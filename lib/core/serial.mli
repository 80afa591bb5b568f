(** JSON serialization of the analysis results.

    One codec per analysis record the sweep engine's content-addressed
    cache persists: encoding is deterministic (field order fixed, floats
    at round-trip precision) and [of_json] is a strict inverse — a cached
    cell decoded from disk renders byte-identically to a freshly computed
    one.  Decoders raise {!Nvsc_util.Json.Parse_error} on shape mismatch,
    which the cache treats as a miss. *)

module Json = Nvsc_util.Json

val summary_to_json : Stack_analysis.summary -> Json.t
val summary_of_json : Json.t -> Stack_analysis.summary

val distribution_to_json : Stack_analysis.distribution -> Json.t
val distribution_of_json : Json.t -> Stack_analysis.distribution

val object_report_to_json : Object_analysis.report -> Json.t
val object_report_of_json : Json.t -> Object_analysis.report

val cdf_to_json : Usage_variance.cdf_point list -> Json.t
val cdf_of_json : Json.t -> Usage_variance.cdf_point list

val variance_to_json : Usage_variance.variance -> Json.t
val variance_of_json : Json.t -> Usage_variance.variance

val pipeline_to_json : Nvsc_appkit.Ctx.pipeline_stats -> Json.t
val pipeline_of_json : Json.t -> Nvsc_appkit.Ctx.pipeline_stats

val assessment_to_json : Nvsc_placement.Hybrid_memory.assessment -> Json.t
val assessment_of_json : Json.t -> Nvsc_placement.Hybrid_memory.assessment
