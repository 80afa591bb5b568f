module Org = Nvsc_dramsim.Org
module AM = Nvsc_dramsim.Address_mapping

let test_org_defaults () =
  let o = Org.paper in
  Alcotest.(check int) "capacity 2GB" (2 * 1024 * 1024 * 1024)
    (Org.capacity_bytes o);
  Alcotest.(check int) "ranks" 16 o.Org.ranks;
  Alcotest.(check int) "banks" 16 o.Org.banks;
  Alcotest.(check int) "row bytes" 8192 (Org.row_bytes o);
  Alcotest.(check int) "lines per row" 128 (Org.lines_per_row o);
  Alcotest.(check int) "total banks" 256 (Org.total_banks o)

let test_org_validation () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Org.make: ranks must be a power of two") (fun () ->
      ignore (Org.make ~ranks:3 ()));
  Alcotest.check_raises "non-pow2 banks"
    (Invalid_argument "Org.make: banks must be a power of two") (fun () ->
      ignore (Org.make ~banks:3 ()));
  Alcotest.check_raises "row too small"
    (Invalid_argument "Org.make: a row must hold at least one line") (fun () ->
      ignore (Org.make ~cols:4 ~bus_width_bits:64 ~line_bytes:64 ()))

let coords_in_range (o : Org.t) (c : AM.coords) =
  c.rank >= 0 && c.rank < o.ranks && c.bank >= 0 && c.bank < o.banks
  && c.row >= 0 && c.row < o.rows && c.col >= 0
  && c.col < Org.lines_per_row o

let range_prop scheme =
  QCheck.Test.make
    ~name:(Printf.sprintf "coords in range: %s" (AM.scheme_name scheme))
    ~count:500
    QCheck.(int_range 0 max_int)
    (fun addr -> coords_in_range Org.paper (AM.decode scheme Org.paper addr))

let bijective_prop scheme =
  (* distinct line addresses within capacity decode to distinct coords *)
  QCheck.Test.make
    ~name:(Printf.sprintf "injective within capacity: %s" (AM.scheme_name scheme))
    ~count:200
    QCheck.(
      pair
        (int_range 0 ((2 * 1024 * 1024 * 1024 / 64) - 1))
        (int_range 0 ((2 * 1024 * 1024 * 1024 / 64) - 1)))
    (fun (l1, l2) ->
      let c1 = AM.decode scheme Org.paper (l1 * 64) in
      let c2 = AM.decode scheme Org.paper (l2 * 64) in
      l1 = l2 || c1 <> c2)

let decoder_orgs =
  [
    ("paper", Org.paper);
    ("2x4x8", Org.make ~ranks:2 ~banks:4 ~rows:8 ());
    ("4x8x64 narrow", Org.make ~ranks:4 ~banks:8 ~rows:64 ~cols:256 ~line_bytes:128 ());
    ("1x1x1", Org.make ~ranks:1 ~banks:1 ~rows:1 ~cols:8 ~line_bytes:64 ());
  ]

(* Addresses well above every capacity (wrap-around) and negative ones
   (the division path), plus the neighbourhood of zero. *)
let decoder_addr =
  QCheck.(
    oneof
      [
        int_range 0 max_int;
        int_range min_int (-1);
        int_range (-4096) 4096;
        int_range 0 (1 lsl 34);
      ])

let decoder_prop scheme =
  QCheck.Test.make
    ~name:(Printf.sprintf "shift decoder = decode_packed: %s" (AM.scheme_name scheme))
    ~count:2000 decoder_addr
    (fun addr ->
      List.for_all
        (fun (_, (o : Org.t)) ->
          let d = AM.decoder scheme o in
          let nbanks = Org.total_banks o in
          let packed = AM.decode_packed scheme o addr in
          let fast = AM.decode_fast d addr in
          fast = packed
          &&
          if addr >= 0 then begin
            (* the documented layout: row above [bank_bits], flat bank
               below, the same coordinates as [decode] *)
            let c = AM.decode scheme o addr in
            1 lsl AM.bank_bits d = nbanks
            && fast land (nbanks - 1) = (c.AM.rank * o.banks) + c.AM.bank
            && fast lsr AM.bank_bits d = c.AM.row
          end
          else fast <= 0)
        decoder_orgs)

let test_sequential_locality () =
  (* under the default scheme, consecutive lines share a row until the row
     boundary (128 lines) *)
  let o = Org.paper in
  let c0 = AM.decode AM.Row_bank_rank_col o 0 in
  let c1 = AM.decode AM.Row_bank_rank_col o 64 in
  let c127 = AM.decode AM.Row_bank_rank_col o (127 * 64) in
  let c128 = AM.decode AM.Row_bank_rank_col o (128 * 64) in
  Alcotest.(check bool) "same row/bank/rank" true
    (c0.AM.rank = c1.AM.rank && c0.AM.bank = c1.AM.bank && c0.AM.row = c1.AM.row);
  Alcotest.(check int) "columns advance" 1 c1.AM.col;
  Alcotest.(check bool) "row end" true (c127.AM.col = 127);
  Alcotest.(check bool) "next row chunk switches rank" true
    (c128.AM.rank <> c0.AM.rank || c128.AM.bank <> c0.AM.bank
    || c128.AM.row <> c0.AM.row)

let test_line_interleave_spreads () =
  let o = Org.paper in
  let c0 = AM.decode AM.Line_interleave o 0 in
  let c1 = AM.decode AM.Line_interleave o 64 in
  Alcotest.(check bool) "consecutive lines change rank" true
    (c1.AM.rank = (c0.AM.rank + 1) mod o.Org.ranks)

let test_wraparound () =
  (* addresses beyond capacity wrap rather than crash *)
  let o = Org.paper in
  let c = AM.decode AM.Row_bank_rank_col o (Org.capacity_bytes o + 64) in
  Alcotest.(check bool) "wrapped in range" true (coords_in_range o c)

let suite =
  [
    Alcotest.test_case "org defaults (Table III)" `Quick test_org_defaults;
    Alcotest.test_case "org validation" `Quick test_org_validation;
    QCheck_alcotest.to_alcotest (range_prop AM.Row_bank_rank_col);
    QCheck_alcotest.to_alcotest (range_prop AM.Row_rank_bank_col);
    QCheck_alcotest.to_alcotest (range_prop AM.Line_interleave);
    QCheck_alcotest.to_alcotest (bijective_prop AM.Row_bank_rank_col);
    QCheck_alcotest.to_alcotest (bijective_prop AM.Line_interleave);
    QCheck_alcotest.to_alcotest (decoder_prop AM.Row_bank_rank_col);
    QCheck_alcotest.to_alcotest (decoder_prop AM.Row_rank_bank_col);
    QCheck_alcotest.to_alcotest (decoder_prop AM.Line_interleave);
    Alcotest.test_case "sequential row locality" `Quick test_sequential_locality;
    Alcotest.test_case "line interleave spreads" `Quick
      test_line_interleave_spreads;
    Alcotest.test_case "address wraparound" `Quick test_wraparound;
  ]
