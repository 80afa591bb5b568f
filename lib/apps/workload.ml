module Ctx = Nvsc_appkit.Ctx
module Farray = Nvsc_appkit.Farray

module type APP = sig
  val name : string
  val description : string
  val input_description : string
  val paper_footprint_mb : float
  val run : ?scale:float -> Ctx.t -> iterations:int -> unit
end

let read_every a ~stride =
  if stride <= 0 then invalid_arg "Workload.read_every: stride";
  let n = Farray.length a in
  let i = ref 0 in
  while !i < n do
    ignore (Farray.get a !i);
    i := !i + stride
  done

let saxpy ctx ~alpha ~x ~y =
  let n = Farray.length x in
  if Farray.length y <> n then invalid_arg "Workload.saxpy: lengths";
  for i = 0 to n - 1 do
    Farray.set y i ((alpha *. Farray.get x i) +. Farray.get y i)
  done;
  Ctx.flops ctx (2 * n)

let dot ctx x y =
  let n = Farray.length x in
  if Farray.length y <> n then invalid_arg "Workload.dot: lengths";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (Farray.get x i *. Farray.get y i)
  done;
  Ctx.flops ctx (2 * n);
  !acc

let scaled s n = Stdlib.max 1 (int_of_float (Float.round (s *. float_of_int n)))
