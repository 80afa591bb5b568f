(** Request → execution plan: which {!Nvsc_sweep.Cell}s to run, and how
    to render each completed cell into the report chunk the client
    streams.

    Cells are the daemon's unit of scheduling {e and} of caching, so
    decomposing every analysis request into cells gives each request
    per-cell parallelism on the shared pool and content-addressed
    memoization for free — a warm [analyze] request is served without
    running anything.  Chunks are rendered by {!Nvsc_sweep.Cell}'s report
    printers, the ones the local subcommands print with, so the
    concatenated chunks are byte-identical to local stdout. *)

module Cell = Nvsc_sweep.Cell

type t = {
  specs : Cell.spec array;  (** cells, in report order *)
  trace : string option;  (** [.nvt] file feeding trace-fed cells *)
  render : Format.formatter -> Cell.spec -> Cell.payload -> unit;
      (** renders one completed cell's chunk *)
}

val chunk : t -> int -> Cell.payload -> string
(** Render cell [i]'s completed payload to its report chunk. *)

val of_request : Protocol.request -> (t, Protocol.error) result
(** Validates and decomposes an analysis request ([analyze]/[run]/
    [replay]/[sweep]).  Unknown applications, technologies, kinds, bad
    overrides, unreadable traces and non-positive configurations come
    back as [bad-request] errors naming the offending field.  Raises
    [Invalid_argument] on [Ping]/[Stats]/[Shutdown], which have no
    plan. *)
