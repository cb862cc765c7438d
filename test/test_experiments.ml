(* Shape assertions for the reproduced experiments (DESIGN.md §3):

   1. when the working set exceeds the CPU cache, Typhoon/Stache beats
      DirNNB (Figure 3's headline);
   2. when the data fits, the two are comparable (the paper's ±30% band,
      with generous slack for scaled-down data sets);
   3. the EM3D update protocol beats both, its advantage grows with the
      fraction of non-local edges and is substantial at 50%. *)

module H = Tt_harness

let nodes = 8

let scale = 0.05

let test_fig3_shape () =
  let rows = H.Fig3.run ~apps:[ "em3d"; "barnes" ] ~scale ~nodes () in
  List.iter
    (fun row ->
      let cell_of label =
        List.find
          (fun (c : H.Fig3.cell) -> c.H.Fig3.config_label = label)
          row.H.Fig3.cells
      in
      let tight = H.Fig3.ratio (cell_of "small/4K") in
      let roomy = H.Fig3.ratio (cell_of "small/256K") in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: stache gains more (or loses less) with a small cache \
            (4K ratio %.2f vs 256K ratio %.2f)"
           row.H.Fig3.bench tight roomy)
        true (tight <= roomy +. 0.02);
      Alcotest.(check bool)
        (Printf.sprintf "%s: comparable when data fits (ratio %.2f)"
           row.H.Fig3.bench roomy)
        true
        (roomy > 0.5 && roomy < 1.5))
    rows

let test_fig3_all_cells_positive () =
  let rows = H.Fig3.run ~apps:[ "ocean" ] ~scale:0.1 ~nodes () in
  List.iter
    (fun row ->
      Alcotest.(check int) "five configurations" 5 (List.length row.H.Fig3.cells);
      List.iter
        (fun (c : H.Fig3.cell) ->
          Alcotest.(check bool) "cycles positive" true
            (c.H.Fig3.dirnnb_cycles > 0 && c.H.Fig3.stache_cycles > 0))
        row.H.Fig3.cells)
    rows

let test_fig4_shape () =
  (* the per-processor problem must be large enough to amortize the NP's
     serial flush work, so use a moderate scale *)
  let points = H.Fig4.run ~pcts:[ 10; 30; 50 ] ~scale:0.05 ~nodes () in
  List.iter
    (fun (p : H.Fig4.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "update wins at %d%% (upd %.1f dir %.1f sta %.1f)"
           p.H.Fig4.pct_remote p.H.Fig4.update p.H.Fig4.dirnnb p.H.Fig4.stache)
        true
        (p.H.Fig4.update < p.H.Fig4.dirnnb
        && p.H.Fig4.update < p.H.Fig4.stache))
    points;
  let adv pct = H.Fig4.advantage_at points pct in
  Alcotest.(check bool)
    (Printf.sprintf "advantage grows with remote fraction (10%%: %.2f, 50%%: %.2f)"
       (adv 10) (adv 50))
    true
    (adv 50 >= adv 10 -. 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "substantial advantage at 50%% (%.2f, paper ~0.35)" (adv 50))
    true
    (adv 50 > 0.2)

let test_fig4_monotone_cost_in_remoteness () =
  let points = H.Fig4.run ~pcts:[ 0; 25; 50 ] ~scale:0.05 ~nodes () in
  let costs = List.map (fun p -> p.H.Fig4.dirnnb) points in
  match costs with
  | [ a; b; c ] ->
      Alcotest.(check bool) "dirnnb cycles/edge grow with remoteness" true
        (a < b && b < c)
  | _ -> Alcotest.fail "expected three points"

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_tables_render () =
  let t1 = H.Tables.table1 () in
  List.iter
    (fun op -> Alcotest.(check bool) ("table1 has " ^ op) true (contains t1 op))
    [ "read"; "write"; "force-read"; "force-write"; "read-tag"; "set-RW";
      "set-RO"; "invalidate"; "resume" ];
  let t2 = H.Tables.table2 () in
  List.iter
    (fun v -> Alcotest.(check bool) ("table2 has " ^ v) true (contains t2 v))
    [ "29 cycles"; "25 cycles"; "11 cycles"; "32 bytes"; "4 Kbytes" ];
  let t3 = H.Tables.table3 () in
  List.iter
    (fun v -> Alcotest.(check bool) ("table3 has " ^ v) true (contains t3 v))
    [ "12x12x12"; "24x24x24"; "2048 bodies"; "8192 bodies"; "10000 mols";
      "50000 mols"; "98x98 grid"; "386x386 grid"; "64000 nodes";
      "192000 nodes" ]

let test_render_fig3 () =
  let rows = H.Fig3.run ~apps:[ "ocean" ] ~scale:0.1 ~nodes () in
  let out = H.Fig3.render rows in
  Alcotest.(check bool) "mentions ocean" true (contains out "ocean");
  Alcotest.(check bool) "mentions configs" true (contains out "small/4K")

let test_render_fig4 () =
  let points = H.Fig4.run ~pcts:[ 0 ] ~scale:0.02 ~nodes () in
  let out = H.Fig4.render points in
  Alcotest.(check bool) "mentions DirNNB" true (contains out "DirNNB");
  Alcotest.(check bool) "mentions update" true (contains out "Typhoon/Update")

let () =
  Alcotest.run "experiments"
    [
      ( "fig3",
        [
          Alcotest.test_case "shape" `Slow test_fig3_shape;
          Alcotest.test_case "all cells populated" `Slow
            test_fig3_all_cells_positive;
          Alcotest.test_case "render" `Slow test_render_fig3;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "update protocol wins and grows" `Slow
            test_fig4_shape;
          Alcotest.test_case "cost grows with remoteness" `Slow
            test_fig4_monotone_cost_in_remoteness;
          Alcotest.test_case "render" `Slow test_render_fig4;
        ] );
      ("tables", [ Alcotest.test_case "tables render" `Quick test_tables_render ]);
    ]
