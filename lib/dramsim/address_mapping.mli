(** Physical-address decomposition into (rank, bank, row, column).

    DRAMSim2 offers several interleaving schemes; the three that matter for
    this study are reproduced.  The choice controls how much rank/bank-level
    parallelism a streaming access pattern enjoys versus how much row-buffer
    locality it keeps. *)

type scheme =
  | Row_bank_rank_col
      (** address bits, high to low: row | bank | rank | column.  A
          sequential stream sweeps a whole row in one (rank,bank) before
          moving to the next rank: strong row locality, rank parallelism at
          row granularity.  DRAMSim2's default-like scheme; ours too. *)
  | Row_rank_bank_col
      (** row | rank | bank | column: like the above with bank and rank
          swapped; sequential rows land in neighbouring banks of the same
          rank first. *)
  | Line_interleave
      (** row | column-high | bank | rank | line-offset: consecutive cache
          lines round-robin across ranks then banks — maximal parallelism,
          minimal row locality. *)

type coords = { rank : int; bank : int; row : int; col : int }

val decode : scheme -> Org.t -> int -> coords
(** [decode scheme org addr] maps a byte address (wrapped modulo device
    capacity) to device coordinates.  The column is the line-granularity
    column index (column of the first beat of the line burst). *)

val decode_packed : scheme -> Org.t -> int -> int
(** Like {!decode} but allocation-free: returns
    [row * total_banks + rank * banks + bank] as one immediate int (the
    column, which never influences line-granularity timing, is dropped).
    Agrees with {!decode} on rank, bank and row for every address. *)

type decoder
(** {!decode_packed} for one fixed scheme and organisation, with its
    shifts and masks computed once. *)

val decoder : scheme -> Org.t -> decoder

val decode_fast : decoder -> int -> int
(** [decode_fast (decoder scheme org) addr = decode_packed scheme org addr]
    for every [addr], computed with shifts and masks (every {!Org}
    dimension is a power of two).  For a non-negative address the result
    is [(row lsl bank_bits d) lor flat_bank]; a negative address takes
    {!decode_packed}'s division path, and its result is negative or 0. *)

val bank_bits : decoder -> int
(** [log2 (Org.total_banks org)]. *)

val scheme_name : scheme -> string
