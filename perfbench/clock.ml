(* Seconds on the monotonic clock, nanosecond resolution. *)
external now : unit -> (float[@unboxed]) = "perfbench_now_byte" "perfbench_now"
[@@noalloc]
