(* Reference implementation: the latency percentiles
   [Nvsc_dramsim.Controller.stats] computed before in-place selection
   replaced them (a sorted copy of every latency, [Array.sort] with a
   closure compare).  Kept verbatim, over the controller's latency array
   and count, as the oracle for the differential qcheck property — do not
   optimize. *)

(* One sorted copy serves all three percentiles; Float.compare avoids the
   polymorphic-comparison cost on large traces. *)
let latency_percentiles latencies latencies_n =
  if latencies_n = 0 then (0., 0., 0.)
  else begin
    let sorted = Array.sub latencies 0 latencies_n in
    Array.sort Float.compare sorted;
    let at p =
      let rank = p *. float_of_int (latencies_n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then sorted.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
      end
    in
    (at 0.5, at 0.95, at 0.99)
  end
