(** Fixed-size domain pool with a work queue.

    [map ~jobs f items] applies [f] to every element of [items] on a pool
    of [jobs] OCaml 5 domains (the calling domain is one of them) and
    returns the results {e in input order} — the deterministic ordered
    collection that byte-identical sweep reports and parallel
    technology simulations ([Memory_system.compare_technologies])
    rest on.  Metrics register under [sweep.pool.*] for every user.
    Work distribution is a take-a-ticket queue (one atomic counter), so
    domains pull the next cell as they finish rather than owning a fixed
    stripe; results land in per-index slots, never shared between
    workers.

    If any [f] raises, the first exception in {e input order} is
    re-raised after every worker has drained (later results are
    discarded). *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [jobs] is clamped to [1 .. Array.length items]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the machine's useful
    parallelism. *)

(** {1 Resident pool}

    The long-lived variant behind [nvscav serve]: worker domains are
    spawned once and block on a condition variable between tasks, so N
    clients multiplex onto one pool with no per-request domain spawns.
    Submitters may be threads on any domain. *)

type t
(** A running pool. *)

val create : ?jobs:int -> unit -> t
(** Spawn [jobs] worker domains (default {!default_jobs}, minimum 1). *)

val jobs : t -> int

type 'a outcome =
  | Done of 'a
  | Failed of exn
  | Cancelled  (** the cancellation hook returned [true] before start *)

type 'a ticket

val submit : ?cancelled:(unit -> bool) -> t -> (unit -> 'a) -> 'a ticket
(** Enqueue a task.  [cancelled] is polled once, just before the task
    would start executing: a task whose client has disconnected is
    dropped from the queue without running.  A task already running is
    never interrupted.  Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a ticket -> 'a outcome
(** Block until the task finishes (or is cancelled).  May be called from
    any thread; repeated calls return the same outcome. *)

val shutdown : t -> unit
(** Stop accepting work, join every worker (running tasks complete), and
    resolve still-queued tasks as [Cancelled]. *)
