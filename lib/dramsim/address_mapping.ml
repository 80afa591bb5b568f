type scheme = Row_bank_rank_col | Row_rank_bank_col | Line_interleave

type coords = { rank : int; bank : int; row : int; col : int }

let decode scheme org addr =
  let line = addr / org.Org.line_bytes in
  let lines_per_row = Org.lines_per_row org in
  let line = line mod (org.ranks * org.banks * org.rows * lines_per_row) in
  match scheme with
  | Row_bank_rank_col ->
    let col = line mod lines_per_row in
    let rest = line / lines_per_row in
    let rank = rest mod org.ranks in
    let rest = rest / org.ranks in
    let bank = rest mod org.banks in
    let row = rest / org.banks in
    { rank; bank; row; col }
  | Row_rank_bank_col ->
    let col = line mod lines_per_row in
    let rest = line / lines_per_row in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let rank = rest mod org.ranks in
    let row = rest / org.ranks in
    { rank; bank; row; col }
  | Line_interleave ->
    let rank = line mod org.ranks in
    let rest = line / org.ranks in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let col = rest mod lines_per_row in
    let row = rest / lines_per_row in
    { rank; bank; row; col }

(* Allocation-free decode, the division-based reference for
   [decode_fast] and its path for negative addresses: the same
   rank/bank/row as [decode], packed as row * total_banks + flat_bank
   (flat_bank = rank * banks + bank).  The column never influences timing
   at line granularity, so it is dropped rather than packed. *)
let decode_packed scheme org addr =
  let line = addr / org.Org.line_bytes in
  let lines_per_row = Org.lines_per_row org in
  let line = line mod (org.ranks * org.banks * org.rows * lines_per_row) in
  let nbanks = org.ranks * org.banks in
  match scheme with
  | Row_bank_rank_col ->
    let rest = line / lines_per_row in
    let rank = rest mod org.ranks in
    let rest = rest / org.ranks in
    let bank = rest mod org.banks in
    let row = rest / org.banks in
    (row * nbanks) + (rank * org.banks) + bank
  | Row_rank_bank_col ->
    let rest = line / lines_per_row in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let rank = rest mod org.ranks in
    let row = rest / org.ranks in
    (row * nbanks) + (rank * org.banks) + bank
  | Line_interleave ->
    let rank = line mod org.ranks in
    let rest = line / org.ranks in
    let bank = rest mod org.banks in
    let rest = rest / org.banks in
    let row = rest / lines_per_row in
    (row * nbanks) + (rank * org.banks) + bank

type decoder = {
  d_scheme : scheme;
  d_org : Org.t;
  line_shift : int;
  cap_mask : int; (* total lines - 1 *)
  lpr_shift : int; (* log2 lines-per-row *)
  ranks_mask : int;
  ranks_shift : int;
  banks_mask : int;
  banks_shift : int;
  bank_bits : int; (* log2 total banks *)
}

let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

(* Every [Org] dimension is a power of two ([Org.t] is private, so only
   [Org.make]'s checked values exist), which makes each division and
   modulus of [decode_packed] a shift or a mask on a non-negative
   address. *)
let decoder scheme org =
  let lines_per_row = Org.lines_per_row org in
  {
    d_scheme = scheme;
    d_org = org;
    line_shift = log2 org.Org.line_bytes;
    cap_mask = (org.ranks * org.banks * org.rows * lines_per_row) - 1;
    lpr_shift = log2 lines_per_row;
    ranks_mask = org.ranks - 1;
    ranks_shift = log2 org.ranks;
    banks_mask = org.banks - 1;
    banks_shift = log2 org.banks;
    bank_bits = log2 (Org.total_banks org);
  }

let bank_bits d = d.bank_bits

(* [decode_packed] with shifts: row * total_banks + flat_bank is
   [(row lsl bank_bits) lor flat_bank] once everything is non-negative.
   A negative address keeps the round-toward-zero division path. *)
let decode_fast d addr =
  if addr < 0 then decode_packed d.d_scheme d.d_org addr
  else begin
    let line = (addr lsr d.line_shift) land d.cap_mask in
    match d.d_scheme with
    | Row_bank_rank_col ->
      let rest = line lsr d.lpr_shift in
      let rank = rest land d.ranks_mask in
      let rest = rest lsr d.ranks_shift in
      let bank = rest land d.banks_mask in
      let row = rest lsr d.banks_shift in
      (row lsl d.bank_bits) lor (rank lsl d.banks_shift) lor bank
    | Row_rank_bank_col ->
      let rest = line lsr d.lpr_shift in
      let bank = rest land d.banks_mask in
      let rest = rest lsr d.banks_shift in
      let rank = rest land d.ranks_mask in
      let row = rest lsr d.ranks_shift in
      (row lsl d.bank_bits) lor (rank lsl d.banks_shift) lor bank
    | Line_interleave ->
      let rank = line land d.ranks_mask in
      let rest = line lsr d.ranks_shift in
      let bank = rest land d.banks_mask in
      let row = (rest lsr d.banks_shift) lsr d.lpr_shift in
      (row lsl d.bank_bits) lor (rank lsl d.banks_shift) lor bank
  end

let scheme_name = function
  | Row_bank_rank_col -> "row:bank:rank:col"
  | Row_rank_bank_col -> "row:rank:bank:col"
  | Line_interleave -> "line-interleave"
