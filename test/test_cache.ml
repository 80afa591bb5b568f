module Cache = Nvsc_cachesim.Cache
module P = Nvsc_cachesim.Cache_params

let tiny ?(write_miss = P.Write_allocate) ?(assoc = 2) ?(sets = 4) () =
  P.make ~name:"tiny" ~size_bytes:(64 * assoc * sets) ~associativity:assoc
    ~write_miss ()

(* Rejections must name the offending field and its value. *)
let test_params_validation () =
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument
       "Cache_params.make: line_bytes = 48 is not a power of two") (fun () ->
      ignore
        (P.make ~name:"x" ~size_bytes:1024 ~associativity:2 ~line_bytes:48
           ~write_miss:P.Write_allocate ()));
  Alcotest.check_raises "non-positive associativity"
    (Invalid_argument "Cache_params.make: associativity = 0 is not positive")
    (fun () ->
      ignore
        (P.make ~name:"x" ~size_bytes:1024 ~associativity:0
           ~write_miss:P.Write_allocate ()));
  Alcotest.check_raises "indivisible size"
    (Invalid_argument
       "Cache_params.make: size_bytes = 1000 is not divisible into sets of \
        line_bytes * associativity = 128 bytes") (fun () ->
      ignore
        (P.make ~name:"x" ~size_bytes:1000 ~associativity:2
           ~write_miss:P.Write_allocate ()));
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument
       "Cache_params.make: size_bytes = 384 gives 3 sets (associativity = 2, \
        line_bytes = 64), which is not a power of two") (fun () ->
      ignore
        (P.make ~name:"x" ~size_bytes:384 ~associativity:2
           ~write_miss:P.Write_allocate ()));
  Alcotest.(check int) "paper L1 sets" 128 (P.sets P.paper_l1d);
  Alcotest.(check int) "paper L2 sets" 1024 (P.sets P.paper_l2)

let test_cold_miss_then_hit () =
  let c = Cache.create (tiny ()) in
  let e = Cache.read c ~line:0 in
  Alcotest.(check bool) "cold miss" false (Cache.Effect.hit e);
  Alcotest.(check bool) "fills" true (Cache.Effect.fills e);
  Alcotest.(check bool) "no writeback" false (Cache.Effect.has_writeback e);
  let e = Cache.read c ~line:0 in
  Alcotest.(check bool) "hit" true (Cache.Effect.hit e);
  Alcotest.(check int) "stats" 1 (Cache.read_hits c);
  Alcotest.(check int) "misses" 1 (Cache.read_misses c)

let test_lru_eviction_order () =
  let c = Cache.create (tiny ~assoc:2 ~sets:1 ()) in
  ignore (Cache.read c ~line:0);
  ignore (Cache.read c ~line:1);
  ignore (Cache.read c ~line:0);
  (* line 1 is now LRU; inserting line 2 must evict it *)
  ignore (Cache.read c ~line:2);
  Alcotest.(check bool) "0 resident" true (Cache.probe c ~line:0);
  Alcotest.(check bool) "1 evicted" false (Cache.probe c ~line:1);
  Alcotest.(check bool) "2 resident" true (Cache.probe c ~line:2);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c)

let test_dirty_eviction_writeback () =
  let c = Cache.create (tiny ~assoc:1 ~sets:1 ()) in
  ignore (Cache.write c ~line:0);
  Alcotest.(check bool) "dirty" true (Cache.is_dirty c ~line:0);
  let e = Cache.read c ~line:1 in
  Alcotest.(check bool) "writeback of dirty victim" true
    (Cache.Effect.has_writeback e && Cache.Effect.writeback_line e = 0);
  Alcotest.(check int) "dirty evictions" 1 (Cache.dirty_evictions c)

let test_clean_eviction_no_writeback () =
  let c = Cache.create (tiny ~assoc:1 ~sets:1 ()) in
  ignore (Cache.read c ~line:0);
  let e = Cache.read c ~line:1 in
  Alcotest.(check bool) "no writeback" false (Cache.Effect.has_writeback e)

let test_no_write_allocate () =
  let c = Cache.create (tiny ~write_miss:P.No_write_allocate ()) in
  let e = Cache.write c ~line:5 in
  Alcotest.(check bool) "miss" false (Cache.Effect.hit e);
  Alcotest.(check bool) "forwarded" true (Cache.Effect.forwards_write e);
  Alcotest.(check bool) "no fill" false (Cache.Effect.fills e);
  Alcotest.(check bool) "not resident" false (Cache.probe c ~line:5);
  (* write hit still dirties *)
  ignore (Cache.read c ~line:5);
  let e = Cache.write c ~line:5 in
  Alcotest.(check bool) "write hit" true (Cache.Effect.hit e);
  Alcotest.(check bool) "dirty now" true (Cache.is_dirty c ~line:5)

let test_write_allocate_dirties () =
  let c = Cache.create (tiny ()) in
  let e = Cache.write c ~line:3 in
  Alcotest.(check bool) "fill on write miss" true (Cache.Effect.fills e);
  Alcotest.(check bool) "dirty after allocate" true (Cache.is_dirty c ~line:3)

let test_flush_dirty () =
  let c = Cache.create (tiny ()) in
  ignore (Cache.write c ~line:0);
  ignore (Cache.write c ~line:1);
  ignore (Cache.read c ~line:2);
  let flushed = ref [] in
  Cache.flush_dirty c (fun l -> flushed := l :: !flushed);
  Alcotest.(check (list int)) "both dirty lines" [ 0; 1 ]
    (List.sort compare !flushed);
  (* second flush is a no-op: lines are clean now *)
  let again = ref 0 in
  Cache.flush_dirty c (fun _ -> incr again);
  Alcotest.(check int) "clean after flush" 0 !again

let test_invalidate_all () =
  let c = Cache.create (tiny ()) in
  ignore (Cache.write c ~line:0);
  Cache.invalidate_all c;
  Alcotest.(check int) "empty" 0 (Cache.resident_lines c);
  Alcotest.(check bool) "gone" false (Cache.probe c ~line:0)

let test_probe_does_not_touch_lru () =
  let c = Cache.create (tiny ~assoc:2 ~sets:1 ()) in
  ignore (Cache.read c ~line:0);
  ignore (Cache.read c ~line:1);
  (* probing 0 must NOT refresh it *)
  ignore (Cache.probe c ~line:0);
  ignore (Cache.read c ~line:2);
  Alcotest.(check bool) "0 was still LRU" false (Cache.probe c ~line:0)

let test_capacity_bound_prop =
  QCheck.Test.make ~name:"resident lines never exceed capacity" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 500) (int_range 0 1000))
    (fun lines ->
      let c = Cache.create (tiny ~assoc:2 ~sets:4 ()) in
      List.iter (fun l -> ignore (Cache.read c ~line:l)) lines;
      Cache.resident_lines c <= 8)

let test_hit_after_miss_prop =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 1000))
    (fun lines ->
      let c = Cache.create (tiny ~assoc:4 ~sets:8 ()) in
      List.for_all
        (fun l ->
          ignore (Cache.read c ~line:l);
          let e = Cache.read c ~line:l in
          Cache.Effect.hit e)
        lines)

let test_miss_rate () =
  let c = Cache.create (tiny ()) in
  ignore (Cache.read c ~line:0);
  ignore (Cache.read c ~line:0);
  Alcotest.(check (float 1e-9)) "50%" 0.5 (Cache.miss_rate c);
  Cache.reset_stats c;
  Alcotest.(check (float 1e-9)) "reset" 0. (Cache.miss_rate c)

(* Property: the hierarchy's batch-time run detector
   ([Hierarchy.consume] gobbling same-line memo hits) must be invisible
   in every counter and every trace record.  Random run-heavy
   word-granular streams — the access shape the detector targets — are
   replayed per reference through [access_raw] (never coalesces) and as
   64-reference batch slices through [consume]. *)
module Hierarchy = Nvsc_cachesim.Hierarchy
module Trace_log = Nvsc_memtrace.Trace_log
module Access = Nvsc_memtrace.Access
module Sink = Nvsc_memtrace.Sink

let gen_run_stream =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (triple (int_bound 0x3FFF) (int_range 1 24) (int_bound 255)))

let expand_runs segs =
  List.concat_map
    (fun (line, len, wpat) ->
      List.init len (fun j ->
          let addr = 0x400000 + (line * 64) + ((j * 4) land 63) in
          let op =
            if (wpat lsr (j land 7)) land 1 = 1 then Access.Write
            else Access.Read
          in
          (addr, 4, op)))
    segs

let cache_fingerprint c =
  [
    Cache.hits c; Cache.misses c; Cache.read_hits c; Cache.read_misses c;
    Cache.write_hits c; Cache.write_misses c; Cache.evictions c;
    Cache.dirty_evictions c;
  ]

let hier_fp h =
  ( cache_fingerprint (Hierarchy.l1d h),
    cache_fingerprint (Hierarchy.l2 h),
    Hierarchy.accesses h,
    Hierarchy.memory_reads h,
    Hierarchy.memory_writes h )

let trace_triples log =
  let acc = ref [] in
  Trace_log.replay log (fun a ->
      acc := (a.Access.addr, a.Access.size, a.Access.op) :: !acc);
  List.rev !acc

let per_ref_run refs =
  let log = Trace_log.create () in
  let h = Hierarchy.create ~sink:(Trace_log.sink log) () in
  List.iter (fun (addr, size, op) -> Hierarchy.access_raw h ~addr ~size ~op) refs;
  Hierarchy.drain h;
  (h, log)

let batched_run refs ~batch_capacity =
  let log = Trace_log.create () in
  let h = Hierarchy.create ~sink:(Trace_log.sink log) () in
  let batch = Sink.Batch.create batch_capacity in
  let n = ref 0 in
  let flush () =
    Hierarchy.consume h batch ~first:0 ~n:!n;
    n := 0
  in
  List.iter
    (fun (addr, size, op) ->
      Sink.Batch.set batch !n ~addr ~size ~op;
      incr n;
      if !n = batch_capacity then flush ())
    refs;
  flush ();
  Hierarchy.drain h;
  (h, log)

let coalescing_invisible =
  QCheck.Test.make ~name:"run coalescing is invisible (per-ref = consume)"
    ~count:20 (QCheck.make gen_run_stream) (fun segs ->
      let refs = expand_runs segs in
      let ha, la = per_ref_run refs in
      let hc, lc = batched_run refs ~batch_capacity:64 in
      hier_fp ha = hier_fp hc && trace_triples la = trace_triples lc)

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "dirty eviction writeback" `Quick
      test_dirty_eviction_writeback;
    Alcotest.test_case "clean eviction" `Quick test_clean_eviction_no_writeback;
    Alcotest.test_case "no-write-allocate" `Quick test_no_write_allocate;
    Alcotest.test_case "write-allocate dirties" `Quick
      test_write_allocate_dirties;
    Alcotest.test_case "flush dirty" `Quick test_flush_dirty;
    Alcotest.test_case "invalidate all" `Quick test_invalidate_all;
    Alcotest.test_case "probe preserves LRU" `Quick
      test_probe_does_not_touch_lru;
    QCheck_alcotest.to_alcotest test_capacity_bound_prop;
    QCheck_alcotest.to_alcotest test_hit_after_miss_prop;
    Alcotest.test_case "miss rate" `Quick test_miss_rate;
    QCheck_alcotest.to_alcotest coalescing_invisible;
  ]
