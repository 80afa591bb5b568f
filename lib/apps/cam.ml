(** CAM mini-app: community atmosphere model (column physics + spectral
    dynamics).

    The paper singles CAM out for its unusually high stack read/write
    ratio (20.39 steady state, 11.46 in the first iteration): its physics
    routines derive interpolation coefficients and computation-dependent
    constants into locals at routine entry and then read them throughout
    the column computation.  That structure is modelled directly: a table
    of physics routines, each staging [coef_words] of coefficients on its
    frame and re-reading them [read_passes] times per call.  The routine
    table also yields figure 2's distribution of per-frame ratios (a few
    routines above 50, many above 10).

    Global population: read-only Legendre-transform constants,
    cosine/sine-of-longitude tables, a field-name hash table and index
    arrays (≈15 % of the footprint, §VII-B), history/restart buffers
    untouched by the main loop (≈11 %), and bulk spectral state swept at
    low reference rates. *)

module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray
module W = Workload

let name = "cam"
let description = "Atmosphere model"
let input_description = "Default test case (scaled)"
let paper_footprint_mb = 608.

let base_ncol = 96
let plev = 24

(* The physics-routine table: name, coefficient words staged per call,
   read passes over them (≈ the routine's stack read/write ratio). *)
(* Calibrated against figure 2: one routine above ratio 50 carrying ~9 % of
   stack references, five routines above 10 carrying ~69 %, the rest just
   below 10 — combining to the Table V overall stack ratio of ~20. *)
let routines =
  [|
    ("radcswmx", 6, 66);
    ("radabs", 18, 36);
    ("cldwat", 18, 36);
    ("zm_convr", 18, 36);
    ("vertical_diffusion", 18, 36);
    ("gw_drag", 18, 10);
    ("phys_update", 18, 10);
    ("tracer_advection", 18, 10);
    ("spectral_pack", 18, 10);
    ("dyn_filter", 18, 10);
    ("qneg_check", 18, 10);
    ("diag_accum", 18, 10);
  |]

type state = {
  ncol : int;
  field : int;
  (* hot prognostic fields *)
  temp : Farray.t;
  u : Farray.t;
  v : Farray.t;
  q : Farray.t;
  ps : Farray.t;
  phys_buf : Farray.t;
  (* Fortran common-block views: [buf_radiation] and [buf_moist] alias
     slabs of [phys_buf] under different names, as different program units
     re-partition a common block (§III-C); the registry merges them into
     one union object *)
  buf_radiation : Farray.t;
  buf_moist : Farray.t;
  (* read-only structures (§VII-B) *)
  leg_coef : Farray.t;
  lon_tables : Farray.t;
  fieldname_hash : Farray.t;
  soil_conductivity : Farray.t;
  (* read/write ratio > 50 global group (small in CAM) *)
  ozone_mix : Farray.t;
  (* bulk spectral state, swept sparsely *)
  spec_coef : Farray.t;
  div_vort : Farray.t;
  phys_state : Farray.t;
  (* touched in a single iteration (fig. 7's unevenly-used data) *)
  monthly_out : Farray.t;
  (* untouched by the main loop *)
  history_buf : Farray.t;
  restart_buf : Farray.t;
}

let setup ctx ~scale =
  let ncol = W.scaled scale base_ncol in
  let field = ncol * plev in
  let g name n = Farray.global ctx ~name n in
  let phys_buf = g "phys_buf" (3 * field) in
  let s =
    {
      ncol;
      field;
      temp = g "temp" field;
      u = g "u" field;
      v = g "v" field;
      q = g "q" field;
      ps = g "ps" ncol;
      phys_buf;
      buf_radiation =
        Farray.global_overlay ctx ~name:"buf_radiation" ~over:phys_buf
          ~offset_words:field field;
      buf_moist =
        Farray.global_overlay ctx ~name:"buf_moist" ~over:phys_buf
          ~offset_words:(2 * field) field;
      leg_coef = g "leg_coef" (W.scaled scale 35_000);
      lon_tables = g "lon_tables" (W.scaled scale 3072);
      fieldname_hash = g "fieldname_hash" (W.scaled scale 2048);
      soil_conductivity = g "soil_conductivity" (W.scaled scale 8192);
      ozone_mix = g "ozone_mix" (W.scaled scale 2048);
      spec_coef = g "spec_coef" (W.scaled scale 90_000);
      div_vort = g "div_vort" (W.scaled scale 60_000);
      phys_state = g "phys_state" (W.scaled scale 25_000);
      monthly_out = g "monthly_out" (W.scaled scale 6_144);
      history_buf = g "history_buf" (W.scaled scale 15_360);
      restart_buf = g "restart_buf" (W.scaled scale 12_288);
    }
  in
  Farray.init ctx s.temp (fun i -> 250. +. float_of_int (i mod 60));
  Farray.init ctx s.u (fun i -> sin (float_of_int i *. 0.01));
  Farray.init ctx s.v (fun i -> cos (float_of_int i *. 0.01));
  Farray.fill ctx s.q 1e-3;
  Farray.fill ctx s.ps 1013.25;
  Farray.fill ctx s.phys_buf 0.;
  Farray.init ctx s.leg_coef (fun i -> float_of_int (i mod 97) /. 97.);
  Farray.init ctx s.lon_tables (fun i -> cos (float_of_int i));
  Farray.init ctx s.fieldname_hash (fun i -> float_of_int (i * 31 mod 1009));
  Farray.fill ctx s.soil_conductivity 0.8;
  Farray.fill ctx s.ozone_mix 1e-6;
  Farray.fill ctx s.spec_coef 0.;
  Farray.fill ctx s.div_vort 0.;
  Farray.fill ctx s.phys_state 0.;
  (* the checkpoint set: the prognostic temperature field and surface
     pressure are what a CAM restart carries forward *)
  Farray.persist ctx s.temp;
  Farray.persist ctx s.ps;
  s

(* One physics routine applied to one column: stage coefficients on the
   frame (plus an extra spin-up pass in the first iteration), then run
   [read_passes] sweeps over them while consuming the column's levels. *)
let physics_routine ctx s ~routine ~coef_words ~read_passes ~col ~iter =
  Ctx.call ctx ~routine ~frame_words:coef_words (fun frame ->
      let coef = Farray.stack ctx frame coef_words in
      for i = 0 to coef_words - 1 do
        Farray.set coef i (float_of_int (i + col) *. 1e-3)
      done;
      if iter = 1 then
        (* first-call initialisation rewrites the locals once more,
           depressing the first iteration's read/write ratio (11.46 vs
           20.39 in the paper's Table V) *)
        for i = 0 to coef_words - 1 do
          Farray.set coef i (float_of_int i *. 2e-3)
        done;
      let acc = ref 0. in
      (* consume the column's profile *)
      for lev = 0 to plev - 1 do
        acc := !acc +. Farray.get s.temp ((col * plev) + lev)
      done;
      for _pass = 1 to read_passes do
        for i = 0 to coef_words - 1 do
          acc := !acc +. Farray.get coef i
        done;
        Ctx.flops ctx coef_words
      done;
      (* a handful of global outputs per call *)
      for lev = 0 to (plev / 4) - 1 do
        Farray.set s.phys_buf ((col * plev) + lev) !acc
      done;
      ignore (Farray.get s.fieldname_hash (col mod Farray.length s.fieldname_hash));
      ignore
        (Farray.get s.soil_conductivity (col mod Farray.length s.soil_conductivity)))

let iterate ctx s ~iter =
  (* column physics: every routine over every column *)
  for col = 0 to s.ncol - 1 do
    Array.iter
      (fun (routine, coef_words, read_passes) ->
        physics_routine ctx s ~routine ~coef_words ~read_passes ~col ~iter)
      routines
  done;
  (* spectral dynamics: Legendre constants are read-only but consulted in
     bulk every step *)
  W.read_every s.leg_coef ~stride:2;
  W.read_every s.lon_tables ~stride:1;
  (* prognostic update (heating rates live in the first field-slab of the
     physics buffer) *)
  for i = 0 to s.field - 1 do
    Farray.set s.temp i
      (Farray.get s.temp i +. (0.002 *. Farray.get s.phys_buf i));
    Ctx.flops ctx 2
  done;
  W.saxpy ctx ~alpha:0.001 ~x:s.u ~y:s.v;
  for col = 0 to s.ncol - 1 do
    let p = Farray.get s.ps col in
    Farray.set s.ps col (p +. 0.01)
  done;
  (* radiation writes its common-block slab; the moist process reads its
     own view of the same block *)
  let j = ref 0 in
  while !j < s.field do
    Farray.set s.buf_radiation !j (float_of_int !j);
    ignore (Farray.get s.buf_moist !j);
    j := !j + 4
  done;
  (* bulk spectral state: swept at low reference rates and partially
     rewritten by the semi-implicit update each step *)
  W.read_every s.spec_coef ~stride:8;
  W.read_every s.div_vort ~stride:8;
  let rewrite a ~stride =
    let n = Farray.length a in
    let j = ref 0 in
    while !j < n do
      Farray.set a !j (float_of_int !j *. 1e-6);
      j := !j + stride
    done
  in
  rewrite s.spec_coef ~stride:16;
  rewrite s.div_vort ~stride:16;
  let n = Farray.length s.phys_state in
  let j = ref 0 in
  while !j < n do
    let v = Farray.get s.phys_state !j in
    Farray.set s.phys_state !j (v *. 0.999);
    j := !j + 8
  done;
  (* the monthly-mean output fires once mid-run: touched in one iteration *)
  if iter = 5 then begin
    let n = Farray.length s.monthly_out in
    for i = 0 to n - 1 do
      Farray.set s.monthly_out i (Farray.get s.temp (i mod s.field))
    done
  end;
  (* the > 50-ratio global: refreshed once, consulted many times *)
  Farray.set s.ozone_mix (iter mod Farray.length s.ozone_mix) 1e-6;
  for _pass = 1 to 4 do
    W.read_every s.ozone_mix ~stride:16
  done;
  (* failure-atomic checkpoint of the restart state *)
  Ctx.persist_epoch ctx ~label:"checkpoint" ~checkpoint:true (fun () ->
      Farray.flush_all ctx s.temp;
      Farray.flush_all ctx s.ps;
      Ctx.fence ctx)

let post ctx s =
  for i = 0 to Farray.length s.history_buf - 1 do
    Farray.set s.history_buf i (Farray.get s.temp (i mod s.field))
  done;
  for i = 0 to Farray.length s.restart_buf - 1 do
    Farray.set s.restart_buf i (Farray.get s.q (i mod s.field))
  done;
  ignore (W.dot ctx s.u s.v)

let run ?(scale = 1.0) ctx ~iterations =
  if iterations < 1 then invalid_arg "Cam.run: iterations";
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Pre;
  let s = setup ctx ~scale in
  for iter = 1 to iterations do
    Ctx.set_phase ctx (Nvsc_memtrace.Mem_object.Main iter);
    iterate ctx s ~iter
  done;
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Post;
  post ctx s
