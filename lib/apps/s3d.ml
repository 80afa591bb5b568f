(** S3D mini-app: direct numerical simulation of turbulent combustion
    (compressible Navier-Stokes with detailed chemistry).

    Structure from the paper: chemistry look-up tables holding linear
    interpolation coefficients are the read-only signature (§VII-B); the
    right-hand-side evaluation stages each point's stencil into the
    routine's frame and re-reads it across species (stack ratio ≈6, stack
    share ≈63 %); Runge-Kutta stage updates sweep the bulk solution
    arrays; a small I/O buffer is untouched by the main loop; per-iteration
    access patterns are essentially invariant (figure 10: reference rates
    unchanged across iterations). *)

module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray
module W = Workload

let name = "s3d"
let description = "Turbulence combustion simulation"
let input_description = "Grid 16x16x16 (scaled from 60x60x60)"
let paper_footprint_mb = 512.

let base_n = 16
let nvar = 14 (* 9 species + momentum + energy *)

type state = {
  npts : int;
  q : Farray.t;  (** conserved variables, [nvar] per point *)
  qhalf : Farray.t;  (** Runge-Kutta stage buffer *)
  rhs : Farray.t;
  chem_tables : Farray.t;  (** read-only interpolation coefficients *)
  transport_coef : Farray.t;  (** read-only *)
  grid_metric : Farray.t;  (** read-only *)
  io_buf : Farray.t;  (** untouched by the main loop *)
}

let setup ctx ~scale =
  let n = W.scaled (scale ** (1. /. 3.)) base_n in
  let npts = n * n * n in
  let g name sz = Farray.global ctx ~name sz in
  let s =
    {
      npts;
      q = g "q" (nvar * npts);
      qhalf = g "qhalf" (nvar * npts);
      rhs = g "rhs" (nvar * npts);
      chem_tables = g "chem_tables" (W.scaled scale 12_288);
      transport_coef = g "transport_coef" (W.scaled scale 6_144);
      grid_metric = g "grid_metric" (W.scaled scale 4_096);
      io_buf = g "io_buf" (W.scaled scale 3_840);
    }
  in
  Farray.init ctx s.q (fun i -> 1.0 +. (float_of_int (i mod 13) *. 0.01));
  Farray.fill ctx s.qhalf 0.;
  Farray.fill ctx s.rhs 0.;
  Farray.init ctx s.chem_tables (fun i -> float_of_int (i mod 101) /. 101.);
  Farray.fill ctx s.transport_coef 0.3;
  Farray.fill ctx s.grid_metric 1.0;
  (* the checkpoint set: the conserved-variable solution is the restart
     state; the stage arrays are recomputed *)
  Farray.persist ctx s.q;
  s

(* Right-hand side at one grid point: stage the 7-point stencil of the
   energy variable into the frame, look up chemistry coefficients, and
   evaluate reaction rates by repeated passes over the staged data. *)
let rhs_point ctx s ~p =
  Ctx.call ctx ~routine:"rhs_chem" ~frame_words:24 (fun frame ->
      let sten = Farray.stack ctx frame 7 in
      let rates = Farray.stack ctx frame 7 in
      let flux = Farray.stack ctx frame 3 in
      let stride = s.npts / 16 in
      (* stencil gather (wrapped indices keep the pattern regular) *)
      let idx k =
        (((p + (k * stride)) mod s.npts) * nvar) mod (nvar * s.npts)
      in
      for k = 0 to 6 do
        Farray.set sten k (Farray.get s.q (idx k))
      done;
      (* chemistry interpolation: table reads are read-only traffic *)
      let tbl = p * 3 mod Farray.length s.chem_tables in
      let c0 = Farray.get s.chem_tables tbl in
      let c1 = Farray.get s.chem_tables ((tbl + 1) mod Farray.length s.chem_tables) in
      let c2 = Farray.get s.chem_tables ((tbl + 2) mod Farray.length s.chem_tables) in
      let mu = Farray.get s.transport_coef (p mod Farray.length s.transport_coef) in
      let jac = Farray.get s.grid_metric (p mod Farray.length s.grid_metric) in
      (* rate evaluation: several read passes over the staged stencil *)
      let acc = ref (c0 +. c1 +. c2) in
      for _pass = 1 to 13 do
        for k = 0 to 6 do
          acc := !acc +. Farray.get sten k
        done;
        Ctx.flops ctx 14
      done;
      (* diffusive flux components *)
      for k = 0 to 2 do
        Farray.set flux k (!acc *. mu *. float_of_int (k + 1));
        acc := !acc +. Farray.get flux k
      done;
      Ctx.flops ctx 6;
      for k = 0 to 6 do
        Farray.set rates k (!acc *. mu *. jac);
        ignore (Farray.get rates k);
        ignore (Farray.get rates ((k + 1) mod 7))
      done;
      (* scatter: a few species' right-hand sides *)
      let out = p * nvar in
      for v = 0 to 3 do
        Farray.set s.rhs (out + v) (Farray.peek rates (v mod 7))
      done)

let iterate ctx s ~iter =
  ignore iter;
  for p = 0 to s.npts - 1 do
    rhs_point ctx s ~p
  done;
  (* Runge-Kutta stage updates: bulk sweeps of the solution arrays *)
  let nv = nvar * s.npts in
  for i = 0 to nv - 1 do
    Farray.set s.qhalf i (Farray.get s.q i +. (1e-3 *. Farray.get s.rhs i));
    Ctx.flops ctx 2
  done;
  let j = ref 0 in
  while !j < nv do
    let v = Farray.get s.q !j in
    Farray.set s.q !j (v +. (1e-3 *. Farray.peek s.qhalf !j));
    j := !j + 2
  done;
  (* failure-atomic checkpoint of the solution *)
  Ctx.persist_epoch ctx ~label:"checkpoint" ~checkpoint:true (fun () ->
      Farray.flush_all ctx s.q;
      Ctx.fence ctx)

let post _ctx s =
  for i = 0 to Farray.length s.io_buf - 1 do
    Farray.set s.io_buf i (Farray.get s.q (i mod (nvar * s.npts)))
  done

let run ?(scale = 1.0) ctx ~iterations =
  if iterations < 1 then invalid_arg "S3d.run: iterations";
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Pre;
  let s = setup ctx ~scale in
  for iter = 1 to iterations do
    Ctx.set_phase ctx (Nvsc_memtrace.Mem_object.Main iter);
    iterate ctx s ~iter
  done;
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Post;
  post ctx s
