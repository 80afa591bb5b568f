type t = {
  entries : int;
  page_bytes : int;
  pages : int array; (* -1 = invalid *)
  age : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~entries ~page_bytes =
  if entries <= 0 || page_bytes <= 0 then invalid_arg "Tlb.create";
  {
    entries;
    page_bytes;
    pages = Array.make entries (-1);
    age = Array.make entries 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(* The entry holding [page], or -1.  Top-level and option-free: a local
   closure and a [Some] would allocate on every access. *)
let rec find t page i =
  if i >= t.entries then -1
  else if t.pages.(i) = page then i
  else find t page (i + 1)

let access t addr =
  let page = addr / t.page_bytes in
  t.clock <- t.clock + 1;
  match find t page 0 with
  | i when i >= 0 ->
    t.hits <- t.hits + 1;
    t.age.(i) <- t.clock;
    true
  | _ ->
    t.misses <- t.misses + 1;
    let victim = ref 0 in
    for i = 1 to t.entries - 1 do
      if t.pages.(i) = -1 && t.pages.(!victim) <> -1 then victim := i
      else if t.pages.(!victim) <> -1 && t.age.(i) < t.age.(!victim) then
        victim := i
    done;
    t.pages.(!victim) <- page;
    t.age.(!victim) <- t.clock;
    false

let hits t = t.hits
let misses t = t.misses

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.misses /. float_of_int total

let reset t =
  Array.fill t.pages 0 t.entries (-1);
  Array.fill t.age 0 t.entries 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0
