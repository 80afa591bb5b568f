module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink
module Technology = Nvsc_nvram.Technology
module Pool = Nvsc_team.Pool
module Ring = Nvsc_team.Ring

(* Bank-sharded memory-controller pipeline.

   [Controller.submit_ref] decomposes into two halves with very different
   data dependencies:

   - the row-buffer decision (hit, miss-no-open-row, miss-over-open-row)
     reads and writes only the accessed bank's open-row register, so for
     a fixed arrival order it is a pure function of that bank's reference
     subsequence — bank-local, hence shardable;
   - everything else (admission window, refresh catch-up, bank-ready /
     shared-bus serialisation, energy and latency accounting) advances
     one global clock and must see the references in order — serial.

   The team splits accordingly.  [shards] classifier workers sit behind
   SPSC rings; every delivered batch slice is announced to all of them,
   and worker [s] decodes each reference with the serial controller's
   shift/mask decoder ([Address_mapping.decode_fast]), keeps private
   open-row registers for the flat banks with [bank land (shards - 1) =
   s], and appends one packed event per owned reference:

     event = (global_idx lsl (bank_bits + 3))
             lor (bank lsl 3) lor (cls lsl 1) lor write_bit

   Global indices are strictly increasing within a worker and disjoint
   across workers (each reference has exactly one home bank), so a k-way
   min-merge on the raw event words restores the arrival order exactly.
   The merge feeds [Controller.issue_classified], which replays the
   serial half with the same float operations in the same order as
   [submit_ref] — stats are byte-identical to a serial controller for
   every shard count (DESIGN.md "Sharded simulation").

   Scheduling discipline: FCFS only.  [Fr_fcfs] reorders transactions
   based on cross-bank row state at issue time, which breaks the
   bank-local classification argument, so the team does not offer it. *)

type descriptor = {
  d_batch : Sink.Batch.t;
  d_first : int;
  d_n : int; (* -1 = shutdown sentinel *)
  d_base : int; (* global index of record [d_first] *)
}

(* One classified slice handed to the replay domain: a snapshot of every
   worker's event array plus the per-worker high watermark at the slice
   barrier.  The pointers stay valid even if a worker later grows its
   array (growth copies and abandons, never mutates below the watermark),
   and the barrier mutex + ring atomics give the happens-before edges
   that publish the events to the replay domain. *)
type rdesc = {
  r_evs : int array array;
  r_hi : int array;
  r_base : int; (* global index of the slice's first reference *)
  r_n : int; (* slice size — exactly the event count across workers *)
  r_stop : bool;
}

type worker_state = {
  sid : int;
  open_row : int array; (* full nbanks width; only owned banks touched *)
  mutable ev : int array;
  mutable ev_n : int;
  mutable busy_ns : int; (* classification time, monotonic clock *)
}

type t = {
  shards : int;
  shard_mask : int;
  row_policy : Controller.row_policy;
  ctl : Controller.t; (* the serial-replay half *)
  rings : descriptor Ring.t array;
  replay_ring : rdesc Ring.t;
  (* replay cursor: per-worker low watermark, owned by the replay domain
     while it runs and by [stats]'s fallback merge afterwards *)
  replay_lo : int array;
  mutable replay_busy_ns : int;
  pool : Pool.t;
  mutable tickets : unit Pool.ticket array;
  mutable replay_ticket : unit Pool.ticket option;
  workers : worker_state array;
  (* per-slice completion barrier: [consume] returns only after every
     worker has classified the slice, so the producer may recycle the
     batch afterwards (the plain [Sink] contract) *)
  done_mu : Mutex.t;
  done_cv : Condition.t;
  mutable done_count : int;
  mutable fed : int;
  mutable finished : bool;
  mutable merged : bool;
  decoder : Address_mapping.decoder;
  nbanks : int;
  bank_bits : int;
}

let shards_for ?(org = Org.paper) requested =
  let down_pow2 n =
    let rec go k = if 2 * k > n then k else go (2 * k) in
    if n <= 1 then 1 else go 1
  in
  min (down_pow2 requested) (Org.total_banks org)

let ring_depth = 8

let create ?(org = Org.paper) ?(scheme = Address_mapping.Row_bank_rank_col)
    ?window ?row_policy ~shards ~tech () =
  if shards <= 0 || shards land (shards - 1) <> 0 then
    invalid_arg "Controller_team.create: shard count must be a power of two";
  let nbanks = Org.total_banks org in
  if shards > nbanks then
    invalid_arg "Controller_team.create: more shards than banks";
  let ctl =
    Controller.create ~org ~scheme ?window ?row_policy
      ~scheduler:Controller.Fcfs ~tech ()
  in
  let workers =
    Array.init shards (fun sid ->
        {
          sid;
          open_row = Array.make nbanks (-1);
          ev = Array.make 4096 0;
          ev_n = 0;
          busy_ns = 0;
        })
  in
  let dummy = { d_batch = Sink.Batch.create 1; d_first = 0; d_n = 0; d_base = 0 } in
  let rings =
    Array.init shards (fun _ -> Ring.create ~capacity:ring_depth dummy)
  in
  let rdummy = { r_evs = [||]; r_hi = [||]; r_base = 0; r_n = 0; r_stop = true } in
  let row_policy =
    match row_policy with Some p -> p | None -> Controller.Open_page
  in
  let decoder = Address_mapping.decoder scheme org in
  let team =
    {
      shards;
      shard_mask = shards - 1;
      row_policy;
      ctl;
      rings;
      replay_ring = Ring.create ~capacity:ring_depth rdummy;
      replay_lo = Array.make shards 0;
      replay_busy_ns = 0;
      (* one domain per classifier plus one for the replay stage — all
         long-running jobs, so each needs its own pool slot *)
      pool = Pool.create ~jobs:(shards + 1) ();
      tickets = [||];
      replay_ticket = None;
      workers;
      done_mu = Mutex.create ();
      done_cv = Condition.create ();
      done_count = 0;
      fed = 0;
      finished = false;
      merged = false;
      decoder;
      nbanks;
      bank_bits = Address_mapping.bank_bits decoder;
    }
  in
  team

(* (flat bank, row) packed as [bank lor (row lsl bank_bits)]: the shared
   decoder's result as is for a non-negative address.  A negative address
   (never produced by the pipeline, but representable) has taken
   [decode_packed]'s round-toward-zero division path; its result is
   split with the same division and repacked. *)
let[@inline never] repack_negative t packed =
  (packed mod t.nbanks) lor ((packed / t.nbanks) lsl t.bank_bits)

let[@inline] decode t addr =
  let packed = Address_mapping.decode_fast t.decoder addr in
  if packed >= 0 then packed else repack_negative t packed

let[@inline] push_event w e =
  let i = w.ev_n in
  if i = Array.length w.ev then begin
    let bigger = Array.make (2 * i) 0 in
    Array.blit w.ev 0 bigger 0 i;
    w.ev <- bigger
  end;
  Array.unsafe_set w.ev i e;
  w.ev_n <- i + 1

(* Classify one owned reference: the same open-row transitions as
   [Controller.issue_flat], recorded instead of timed. *)
let[@inline] classify t w ~idx ~bank ~row ~write =
  let prev = Array.unsafe_get w.open_row bank in
  let cls = if prev = row then 0 else if prev >= 0 then 2 else 1 in
  (match t.row_policy with
  | Controller.Closed_page -> Array.unsafe_set w.open_row bank (-1)
  | Controller.Open_page ->
    if cls <> 0 then Array.unsafe_set w.open_row bank row);
  push_event w
    ((idx lsl (t.bank_bits + 3))
    lor (bank lsl 3)
    lor (cls lsl 1)
    lor (if write then 1 else 0))

let classify_slice t w batch ~first ~n ~base =
  if Sink.checks_enabled () then
    for i = first to first + n - 1 do
      let addr = Sink.Batch.addr batch i in
      let br = decode t addr in
      let bank = br land (t.nbanks - 1) in
      if bank land t.shard_mask = w.sid then
        classify t w ~idx:(base + i - first) ~bank ~row:(br lsr t.bank_bits)
          ~write:
            (match Sink.Batch.op batch i with
            | Access.Read -> false
            | Access.Write -> true)
    done
  else begin
    let addrs = Sink.Batch.addrs batch and ops = Sink.Batch.ops batch in
    let off = base - first in
    for i = first to first + n - 1 do
      let addr = Bigarray.Array1.unsafe_get addrs i in
      let br = decode t addr in
      let bank = br land (t.nbanks - 1) in
      if bank land t.shard_mask = w.sid then
        classify t w ~idx:(off + i) ~bank ~row:(br lsr t.bank_bits)
          ~write:(Bigarray.Array1.unsafe_get ops i <> '\000')
    done
  end

(* Calibration probe: run worker [sid]'s classification of a slice inline
   on the calling domain — no rings, no barrier, no domain timesharing —
   so the kernel bench can sample each worker's busy time in isolation.
   Mutates the worker's state exactly as the domain would; do not mix
   with [consume] on the same team. *)
let classify_probe t ~sid batch ~first ~n ~base =
  Sink.Batch.check_slice batch ~first ~n;
  classify_slice t t.workers.(sid) batch ~first ~n ~base

let worker t i () =
  let ring = t.rings.(i) and w = t.workers.(i) in
  let rec loop () =
    let d = Ring.pop ring in
    if d.d_n >= 0 then begin
      let t0 = Nvsc_obs.Clock.now_ns () in
      classify_slice t w d.d_batch ~first:d.d_first ~n:d.d_n ~base:d.d_base;
      w.busy_ns <- w.busy_ns + (Nvsc_obs.Clock.now_ns () - t0);
      Mutex.lock t.done_mu;
      t.done_count <- t.done_count + 1;
      if t.done_count = t.shards then Condition.signal t.done_cv;
      Mutex.unlock t.done_mu;
      loop ()
    end
  in
  loop ()

(* Replay the ranges [lo.(j), hi.(j)) of [evs] in arrival order (the
   serial-replay half).  The event word's high field is the global
   reference index and each index in [base, base + n) was classified by
   exactly one worker, so scattering the events into a dense scratch and
   sweeping it sequentially reconstructs arrival order with no
   comparisons — a k-way min-merge pays a data-dependent branch
   mispredict per event, which dominated the stage at k > 1.  The
   scatter runs in index blocks small enough that the dense window stays
   cache-resident even when a big slice's k passes would otherwise
   stream it from memory k times; each worker's events are ascending, so
   the block boundary is one predictable compare per event.  The scatter
   store stays bounds-checked: a corrupt index raises instead of
   scribbling. *)
let rblock = 16384

let replay_ranges t scratch evs lo hi ~base ~n =
  let bn_cap = min n rblock in
  if Array.length !scratch < bn_cap then scratch := Array.make bn_cap 0;
  let dense = !scratch in
  let shift = t.bank_bits + 3 in
  let bank_mask = t.nbanks - 1 in
  let k = Array.length evs in
  let b = ref 0 in
  while !b < n do
    let bn = min rblock (n - !b) in
    let blo = base + !b in
    let bhi = blo + bn in
    for j = 0 to k - 1 do
      let ev = evs.(j) in
      let stop = Array.unsafe_get hi j in
      let i = ref (Array.unsafe_get lo j) in
      let in_block = ref true in
      while !in_block && !i < stop do
        let e = Array.unsafe_get ev !i in
        let idx = e lsr shift in
        if idx < bhi then begin
          dense.(idx - blo) <- e;
          incr i
        end
        else in_block := false
      done;
      Array.unsafe_set lo j !i
    done;
    for s = 0 to bn - 1 do
      let e = Array.unsafe_get dense s in
      Controller.issue_classified t.ctl
        (if e land 1 = 1 then Access.Write else Access.Read)
        ~bank:((e lsr 3) land bank_mask)
        ~cls:((e lsr 1) land 3)
    done;
    b := !b + bn
  done

(* The streaming replay stage: merges each slice's classified events into
   the controller while the classifier workers take the next slice, so in
   steady state the team's cost per reference is the slower stage, not
   the sum.  Owns [t.replay_lo] until joined. *)
let replay_worker t () =
  let scratch = ref [||] in
  let rec loop () =
    let d = Ring.pop t.replay_ring in
    if not d.r_stop then begin
      let t0 = Nvsc_obs.Clock.now_ns () in
      replay_ranges t scratch d.r_evs t.replay_lo d.r_hi ~base:d.r_base
        ~n:d.r_n;
      t.replay_busy_ns <- t.replay_busy_ns + (Nvsc_obs.Clock.now_ns () - t0);
      loop ()
    end
  in
  loop ()

let start t =
  if Array.length t.tickets = 0 then begin
    t.tickets <- Array.init t.shards (fun i -> Pool.submit t.pool (worker t i));
    t.replay_ticket <- Some (Pool.submit t.pool (replay_worker t))
  end

let consume t batch ~first ~n =
  Nvsc_obs.Span.with_ "dramsim.classify" @@ fun () ->
  if t.finished then invalid_arg "Controller_team.consume: already finished";
  Sink.Batch.check_slice batch ~first ~n;
  if n > 0 then begin
    start t;
    t.done_count <- 0;
    let d = { d_batch = batch; d_first = first; d_n = n; d_base = t.fed } in
    Array.iter (fun ring -> Ring.push ring d) t.rings;
    Mutex.lock t.done_mu;
    while t.done_count < t.shards do
      Condition.wait t.done_cv t.done_mu
    done;
    Mutex.unlock t.done_mu;
    (* hand the completed slice to the replay stage: snapshot pointers
       and watermarks here, while the workers are idle between slices —
       growth during the next slice copies-and-abandons, so the snapshot
       stays valid below its watermark *)
    Ring.push t.replay_ring
      {
        r_evs = Array.map (fun w -> w.ev) t.workers;
        r_hi = Array.map (fun w -> w.ev_n) t.workers;
        r_base = t.fed;
        r_n = n;
        r_stop = false;
      };
    t.fed <- t.fed + n
  end

let sink ?name t = Sink.create ?name (consume t)

let finish t =
  if not t.finished then begin
    t.finished <- true;
    if Array.length t.tickets > 0 then begin
      let sentinel =
        { d_batch = Sink.Batch.create 1; d_first = 0; d_n = -1; d_base = 0 }
      in
      Array.iter (fun ring -> Ring.push ring sentinel) t.rings;
      let first_failure = ref None in
      Array.iter
        (fun ticket ->
          match Pool.await ticket with
          | Pool.Done () -> ()
          | Pool.Failed e ->
            if !first_failure = None then first_failure := Some e
          | Pool.Cancelled -> ())
        t.tickets;
      (* the classifiers have drained, so every slice's events are
         already queued ahead of this stop marker *)
      Ring.push t.replay_ring
        { r_evs = [||]; r_hi = [||]; r_base = 0; r_n = 0; r_stop = true };
      (match t.replay_ticket with
      | Some ticket -> (
        match Pool.await ticket with
        | Pool.Done () -> t.merged <- true
        | Pool.Failed e ->
          if !first_failure = None then first_failure := Some e
        | Pool.Cancelled -> ())
      | None -> ());
      (match !first_failure with Some e -> Pool.shutdown t.pool; raise e
      | None -> ())
    end;
    Pool.shutdown t.pool
  end

(* Replay everything classified but not yet replayed, in one batch on
   the calling domain — the path for teams whose streaming replay never
   ran (probe-only teams).  The pending indices form one contiguous
   range, so the base is the smallest unreplayed head across workers. *)
let replay_pending t =
  Nvsc_obs.Span.with_ "dramsim.replay-classified" @@ fun () ->
  let evs = Array.map (fun w -> w.ev) t.workers in
  let hi = Array.map (fun w -> w.ev_n) t.workers in
  let lo = t.replay_lo in
  let shift = t.bank_bits + 3 in
  let total = ref 0 and base = ref max_int in
  Array.iteri
    (fun j l ->
      total := !total + (hi.(j) - l);
      if l < hi.(j) then base := min !base (evs.(j).(l) lsr shift))
    lo;
  if !total > 0 then
    replay_ranges t (ref [||]) evs lo hi ~base:!base ~n:!total

let merge t =
  if not t.merged then begin
    t.merged <- true;
    replay_pending t
  end

let stats t =
  finish t;
  merge t;
  Controller.stats t.ctl

let fed t = t.fed
let shards t = t.shards
let ring_stats t = Array.map Ring.stats t.rings
let worker_busy_ns t = Array.map (fun w -> w.busy_ns) t.workers
let replay_busy_ns t = t.replay_busy_ns

(* Exported backpressure counters: merged into the obs registry when the
   team finishes so [--profile] and [client stats] can see transport
   stalls without touching worker state mid-run. *)
let export_metrics t =
  let pushes = Nvsc_obs.Metrics.counter "dram.team.ring.pushes"
  and pwaits = Nvsc_obs.Metrics.counter "dram.team.ring.producer_waits"
  and cwaits = Nvsc_obs.Metrics.counter "dram.team.ring.consumer_waits" in
  Array.iter
    (fun ring ->
      let s = Ring.stats ring in
      Nvsc_obs.Metrics.Counter.add pushes s.Ring.pushes;
      Nvsc_obs.Metrics.Counter.add pwaits s.Ring.producer_waits;
      Nvsc_obs.Metrics.Counter.add cwaits s.Ring.consumer_waits)
    t.rings;
  let s = Ring.stats t.replay_ring in
  let add name v = Nvsc_obs.Metrics.Counter.add (Nvsc_obs.Metrics.counter name) v in
  add "dram.team.replay.pushes" s.Ring.pushes;
  add "dram.team.replay.producer_waits" s.Ring.producer_waits;
  add "dram.team.replay.consumer_waits" s.Ring.consumer_waits
