(** GTC mini-app: gyrokinetic toroidal particle-in-cell turbulence code.

    The paper finds GTC to be the least NVRAM-friendly of the four
    applications: its footprint is dominated by particle arrays that are
    both read and written every iteration (gather-push-scatter), its stack
    share of references is the lowest (44.3 %) with the lowest stack
    read/write ratio (3.48), its memory objects are touched evenly across
    every computation step (no figure-7 curve), and its only read-only
    data is a modest set of radial interpolation arrays.  Short-term heap
    scratch (particle-shift communication buffers) appears and dies inside
    each iteration. *)

module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray
module W = Workload

let name = "gtc"
let description = "Turbulence plasma simulation"
let input_description =
  "poloidal grid=392, toroidal grids=2, 7 particles/cell (scaled)"
let paper_footprint_mb = 218.

let base_npart = 8192
let base_grid = 8192
let particle_attrs = 6

type state = {
  npart : int;
  grid : int;
  zion : Farray.t;  (** particle phase space, 6 attributes per particle *)
  zion0 : Farray.t;  (** previous-step copy for the RK push *)
  chargeden : Farray.t;  (** scatter target, read-modify-write heavy *)
  efield : Farray.t;  (** 3 components per grid point *)
  radial_interp : Farray.t;  (** read-only auxiliary (paper §VII-B) *)
  diagnostics : Farray.t;
}

let setup ctx ~scale =
  let npart = W.scaled scale base_npart in
  let grid = W.scaled scale base_grid in
  let g name n = Farray.global ctx ~name n in
  let s =
    {
      npart;
      grid;
      zion = g "zion" (particle_attrs * npart);
      zion0 = g "zion0" (particle_attrs * npart);
      chargeden = g "chargeden" grid;
      efield = g "efield" (3 * grid);
      radial_interp = g "radial_interp" (W.scaled scale 4096);
      diagnostics = g "diagnostics" (W.scaled scale 2048);
    }
  in
  Farray.init ctx s.zion (fun i -> float_of_int (i mod 1000) /. 1000.);
  Farray.fill ctx s.zion0 0.;
  Farray.fill ctx s.chargeden 0.;
  Farray.fill ctx s.efield 0.;
  Farray.init ctx s.radial_interp (fun i -> float_of_int i *. 1e-4);
  Farray.fill ctx s.diagnostics 0.;
  (* the checkpoint set: particle phase space and the diagnostics are what
     a GTC restart file holds; the scatter/field arrays are recomputed *)
  Farray.persist ctx s.zion;
  Farray.persist ctx s.diagnostics;
  s

(* Gather-push-scatter for one particle: field gather through the radial
   interpolation arrays, a small stack temporary for the equations of
   motion (read ~3.5x per write, the paper's GTC stack signature), then
   the charge scatter's read-modify-write into the grid. *)
let push_particle ctx s ~p =
  Ctx.call ctx ~routine:"pushe" ~frame_words:8 (fun frame ->
      let tmp = Farray.stack ctx frame 6 in
      let zoff = p * particle_attrs in
      (* particles are kept sorted by cell (as GTC's radial binning does),
         so consecutive pushes walk the grid nearly sequentially *)
      let cell = p * s.grid / s.npart mod s.grid in
      (* gather: field components and interpolation weights *)
      let e0 = Farray.get s.efield (3 * cell) in
      let e1 = Farray.get s.efield ((3 * cell) + 1) in
      let w0 = Farray.get s.radial_interp (cell mod Farray.length s.radial_interp) in
      let w1 =
        Farray.get s.radial_interp ((cell + 1) mod Farray.length s.radial_interp)
      in
      (* stage the particle's coordinates *)
      for a = 0 to particle_attrs - 1 do
        Farray.set tmp a (Farray.get s.zion (zoff + a))
      done;
      (* equations of motion: several read passes over the temporary *)
      let acc = ref ((e0 *. w0) +. (e1 *. w1)) in
      for _pass = 1 to 3 do
        for a = 0 to particle_attrs - 1 do
          acc := !acc +. Farray.get tmp a
        done;
        Ctx.flops ctx (2 * particle_attrs)
      done;
      ignore (Farray.get tmp 0);
      ignore (Farray.get tmp 1);
      ignore (Farray.get tmp 2);
      (* push: write the particle back *)
      for a = 0 to particle_attrs - 1 do
        Farray.set s.zion (zoff + a) (Farray.peek tmp a +. (1e-3 *. !acc))
      done;
      (* scatter: accumulate charge into two grid cells *)
      let v = Farray.get s.chargeden cell in
      Farray.set s.chargeden cell (v +. w0);
      let next = (cell + 1) mod s.grid in
      let v = Farray.get s.chargeden next in
      Farray.set s.chargeden next (v +. w1))

(* Field solve: one damped-Jacobi sweep of the gyrokinetic Poisson
   equation with a stack-resident potential temporary. *)
let poisson ctx s =
  Ctx.call ctx ~routine:"poisson" ~frame_words:(s.grid + 8) (fun frame ->
      let phi = Farray.stack ctx frame s.grid in
      for i = 0 to s.grid - 1 do
        Farray.set phi i (Farray.get s.chargeden i)
      done;
      for _sweep = 1 to 2 do
        for i = 0 to s.grid - 1 do
          let left = Farray.get phi (if i = 0 then s.grid - 1 else i - 1) in
          let here = Farray.get phi i in
          Ctx.flops ctx 4;
          Farray.set s.efield (3 * i mod (3 * s.grid)) (here -. left)
        done
      done;
      (* gradient: two more component writes per point *)
      for i = 0 to s.grid - 1 do
        let here = Farray.get phi i in
        Farray.set s.efield ((3 * i mod (3 * s.grid)) + 1) (0.5 *. here);
        Farray.set s.efield ((3 * i mod (3 * s.grid)) + 2) (-0.5 *. here);
        Ctx.flops ctx 2
      done)

let iterate ctx s ~iter =
  ignore iter;
  (* save the previous phase space for the second-order push *)
  Farray.copy_into ctx ~src:s.zion ~dst:s.zion0;
  for p = 0 to s.npart - 1 do
    push_particle ctx s ~p
  done;
  poisson ctx s;
  (* short-term heap: the particle-shift communication buffer lives and
     dies inside the iteration (same allocation site every time) *)
  let shift = Farray.heap ctx ~site:"shift_buf" (s.npart / 2) in
  Farray.fill ctx shift 0.;
  ignore (Farray.sum ctx shift);
  Farray.free ctx shift;
  (* light diagnostics *)
  let v = Farray.get s.diagnostics 0 in
  Farray.set s.diagnostics 0 (v +. 1.);
  W.read_every s.diagnostics ~stride:32;
  (* failure-atomic checkpoint of the restart state *)
  Ctx.persist_epoch ctx ~label:"checkpoint" ~checkpoint:true (fun () ->
      Farray.flush_all ctx s.zion;
      Farray.flush_all ctx s.diagnostics;
      Ctx.fence ctx)

let post ctx s =
  ignore (Farray.sum ctx s.chargeden);
  for i = 0 to Farray.length s.diagnostics - 1 do
    let v = Farray.get s.diagnostics i in
    Farray.set s.diagnostics i (v /. 2.)
  done

let run ?(scale = 1.0) ctx ~iterations =
  if iterations < 1 then invalid_arg "Gtc.run: iterations";
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Pre;
  let s = setup ctx ~scale in
  for iter = 1 to iterations do
    Ctx.set_phase ctx (Nvsc_memtrace.Mem_object.Main iter);
    iterate ctx s ~iter
  done;
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Post;
  post ctx s
