(** The paper's evaluation: its configuration, the data behind every table
    and figure, and their printers.

    {!data} is produced by the sweep engine
    ([Nvsc_sweep.Engine.experiments_data]) from the objects, power and
    perf cells of the paper's four mini-applications; {!run_all_of_data}
    prints every table and figure from it, and [Report.markdown_of_data]
    renders the same data as markdown.  Figure 12 re-runs the applications
    against the performance model, one run per memory technology, as the
    paper does. *)

type config = {
  scale : float;  (** data-size multiplier for the scavenger runs *)
  iterations : int;  (** main-loop iterations (paper: 10) *)
  perf_scale : float;  (** scale for the figure-12 runs *)
}

val default_config : config
(** scale 1.0, 10 iterations, perf_scale 0.5 (the figure-12 runs simulate
    one iteration of a reduced problem, as the paper's §VII-E does). *)

val quick_config : config
(** Reduced sizes for fast test runs. *)

(** {1 Figure 12} *)

val perf_replay :
  ?scale:float ->
  (module Nvsc_apps.Workload.APP) ->
  Nvsc_cpusim.Perf_model.t ->
  unit
(** Drive one main-loop iteration of the application into a performance
    model (main-loop references and instruction counts only) — the replay
    closure behind figure 12. *)

val fig12_data :
  ?config:config ->
  ?asymmetric:bool ->
  unit ->
  (string * Nvsc_cpusim.Sensitivity.point list) list
(** Per app, normalised runtime per technology.  [asymmetric] switches the
    performance model to distinct read/write latencies with posted writes
    (see {!Nvsc_cpusim.Sensitivity.run_shared}).  Each app runs once, into
    a model with one latency lane per technology. *)

(** {1 Evaluation data} *)

type table1_row = {
  app_name : string;
  input_description : string;
  description : string;
  footprint_bytes : int;
  paper_footprint_mb : float;
}

type fig12_cell = {
  tech : Nvsc_nvram.Technology.t;
  latency_ns : float;
  normalized_runtime : float;
}

(** Everything the evaluation report needs, per app, in presentation
    order.  [cdfs] omits GTC, as the paper's figure 7 does; [powers] holds
    the normalised average power per technology (Table VI). *)
type data = {
  data_config : config;
  rows : table1_row list;
  summaries : Stack_analysis.summary list;
  cam_distribution : Stack_analysis.distribution option;
  reports : Object_analysis.report list;
  cdfs : (string * Usage_variance.cdf_point list) list;
  untouched : (string * float) list;
  variances : (string * Usage_variance.variance) list;
  powers : (string * (Nvsc_nvram.Technology.t * float) list) list;
  perf : (string * fig12_cell list) list;
  pipelines : (string * Nvsc_appkit.Ctx.pipeline_stats) list;
}

(** {1 Printing forms} *)

val pp_table1_rows : Format.formatter -> table1_row list -> unit

val pp_fig7_data :
  Format.formatter -> (string * Usage_variance.cdf_point list) list -> unit

val pp_table6_data :
  Format.formatter ->
  (string * (Nvsc_nvram.Technology.t * float) list) list ->
  unit

val table2 : Format.formatter -> unit -> unit
val table3 : Format.formatter -> unit -> unit
val table4 : Format.formatter -> unit -> unit

val run_all_of_data : Format.formatter -> data -> unit
(** Print every table and figure from the evaluation data. *)
