(** MiniMD-like mini-app: short-range molecular dynamics (Lennard-Jones,
    velocity Verlet).

    A second beyond-the-paper workload.  Its signature structure is the
    neighbour list: rebuilt every [rebuild_interval] time steps and
    exclusively read in between — *temporally* NVRAM-friendly data of
    exactly the kind the paper's §VII-C says a dynamic placement policy
    can exploit (high read/write ratio most iterations, write bursts in
    rebuild iterations).  The cell-binning scratch is a short-term heap
    object that lives only inside rebuild steps. *)

module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray
module W = Workload

let name = "minimd"
let description = "Molecular dynamics (Lennard-Jones)"
let input_description = "4000 atoms, neighbor rebuild every 5 steps (scaled)"
let paper_footprint_mb = 0. (* not in the paper *)

let base_atoms = 4000
let neighbors_per_atom = 24
let rebuild_interval = 5

type state = {
  atoms : int;
  pos : Farray.t;  (** 3 coordinates per atom *)
  vel : Farray.t;
  force : Farray.t;
  neighbor_list : Farray.t;  (** read-only between rebuilds *)
  neighbor_count : Farray.t;
  lj_table : Farray.t;  (** interpolation table: read-only *)
  diagnostics : Farray.t;
}

let setup ctx ~scale =
  let atoms = W.scaled scale base_atoms in
  let g name sz = Farray.global ctx ~name sz in
  let s =
    {
      atoms;
      pos = g "pos" (3 * atoms);
      vel = g "vel" (3 * atoms);
      force = g "force" (3 * atoms);
      neighbor_list = g "neighbor_list" (neighbors_per_atom * atoms);
      neighbor_count = g "neighbor_count" atoms;
      lj_table = g "lj_table" (W.scaled scale 4096);
      diagnostics = g "diagnostics" (W.scaled scale 1024);
    }
  in
  Farray.init ctx s.pos (fun i -> float_of_int (i mod 97) /. 10.);
  Farray.fill ctx s.vel 0.;
  Farray.fill ctx s.force 0.;
  Farray.fill ctx s.neighbor_list 0.;
  Farray.fill ctx s.neighbor_count 0.;
  Farray.init ctx s.lj_table (fun i -> 1.0 /. float_of_int (i + 1));
  Farray.fill ctx s.diagnostics 0.;
  (* the checkpoint set: positions and velocities are the restart state;
     forces and neighbour lists are recomputed *)
  Farray.persist ctx s.pos;
  Farray.persist ctx s.vel;
  s

(* Rebuild the neighbour list through a cell-binning scratch buffer (the
   short-term heap object). *)
let rebuild_neighbors ctx s =
  let bins = Farray.heap ctx ~site:"cell_bins" s.atoms in
  for a = 0 to s.atoms - 1 do
    Farray.set bins a (Farray.get s.pos (3 * a))
  done;
  for a = 0 to s.atoms - 1 do
    Farray.set s.neighbor_count a (float_of_int neighbors_per_atom);
    for k = 0 to neighbors_per_atom - 1 do
      let nb = (a + (k * 7) + 1) mod s.atoms in
      ignore (Farray.get bins (nb mod Farray.length bins));
      Farray.set s.neighbor_list ((a * neighbors_per_atom) + k)
        (float_of_int nb)
    done
  done;
  Farray.free ctx bins

(* Lennard-Jones force kernel: the atom's position and accumulators live on
   the frame; neighbour positions are gathered from global memory. *)
let compute_forces ctx s =
  Ctx.call ctx ~routine:"force_lj" ~frame_words:16 (fun frame ->
      let my = Farray.stack ctx frame 3 in
      let acc = Farray.stack ctx frame 3 in
      for a = 0 to s.atoms - 1 do
        for d = 0 to 2 do
          Farray.set my d (Farray.get s.pos ((3 * a) + d));
          Farray.set acc d 0.
        done;
        let nn = int_of_float (Farray.get s.neighbor_count a) in
        for k = 0 to Stdlib.min nn 7 - 1 do
          let nb =
            int_of_float (Farray.get s.neighbor_list ((a * neighbors_per_atom) + k))
          in
          let c = Farray.get s.lj_table ((nb * 13) mod Farray.length s.lj_table) in
          for d = 0 to 2 do
            let delta = Farray.get my d -. Farray.get s.pos ((3 * nb) + d) in
            let v = Farray.get acc d in
            Farray.set acc d (v +. (c *. delta))
          done;
          Ctx.flops ctx 9
        done;
        for d = 0 to 2 do
          Farray.set s.force ((3 * a) + d) (Farray.get acc d)
        done
      done)

let integrate ctx s =
  let n = 3 * s.atoms in
  for i = 0 to n - 1 do
    let v = Farray.get s.vel i +. (0.005 *. Farray.get s.force i) in
    Farray.set s.vel i v;
    let x = Farray.get s.pos i in
    Farray.set s.pos i (x +. (0.005 *. v));
    Ctx.flops ctx 4
  done

let iterate ctx s ~iter =
  if (iter - 1) mod rebuild_interval = 0 then rebuild_neighbors ctx s;
  compute_forces ctx s;
  integrate ctx s;
  let v = Farray.get s.diagnostics 0 in
  Farray.set s.diagnostics 0 (v +. 1.);
  W.read_every s.diagnostics ~stride:64;
  (* failure-atomic checkpoint of the particle state *)
  Ctx.persist_epoch ctx ~label:"checkpoint" ~checkpoint:true (fun () ->
      Farray.flush_all ctx s.pos;
      Farray.flush_all ctx s.vel;
      Ctx.fence ctx)

let post ctx s = ignore (W.dot ctx s.vel s.vel)

let run ?(scale = 1.0) ctx ~iterations =
  if iterations < 1 then invalid_arg "Minimd.run: iterations";
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Pre;
  let s = setup ctx ~scale in
  for iter = 1 to iterations do
    Ctx.set_phase ctx (Nvsc_memtrace.Mem_object.Main iter);
    iterate ctx s ~iter
  done;
  Ctx.set_phase ctx Nvsc_memtrace.Mem_object.Post;
  post ctx s
