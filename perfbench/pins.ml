(* Simulated digest of every cell at the default seed, as printed by
   [perfbench --pins --workload NAME]: [cycles; msgs] for a run, and
   [cycles; deaths; revivals; scrubbed; epochs; pages_rehomed] for a
   Recovery cell.  A host-only change must reproduce every row exactly. *)

let table : (string * int list) list =
  [
    ("fig3_invalidate/appbt/dirnnb/4K", [ 616264; 15676 ]);
    ("fig3_invalidate/appbt/dirnnb/256K", [ 547720; 13365 ]);
    ("fig3_invalidate/appbt/stache/4K", [ 563733; 11430 ]);
    ("fig3_invalidate/appbt/stache/256K", [ 530521; 11430 ]);
    ("fig3_invalidate/barnes/dirnnb/4K", [ 668969; 85592 ]);
    ("fig3_invalidate/barnes/dirnnb/256K", [ 390635; 57769 ]);
    ("fig3_invalidate/barnes/stache/4K", [ 408899; 56854 ]);
    ("fig3_invalidate/barnes/stache/256K", [ 375661; 56854 ]);
    ("fig3_invalidate/mp3d/dirnnb/4K", [ 185035; 30060 ]);
    ("fig3_invalidate/mp3d/dirnnb/256K", [ 192199; 30466 ]);
    ("fig3_invalidate/mp3d/stache/4K", [ 183763; 30128 ]);
    ("fig3_invalidate/mp3d/stache/256K", [ 183656; 30136 ]);
    ("fig3_invalidate/ocean/dirnnb/4K", [ 19165; 7348 ]);
    ("fig3_invalidate/ocean/dirnnb/256K", [ 17650; 6992 ]);
    ("fig3_invalidate/ocean/stache/4K", [ 18322; 6272 ]);
    ("fig3_invalidate/ocean/stache/256K", [ 17408; 6272 ]);
    ("fig3_invalidate/em3d/dirnnb/4K", [ 383183; 185825 ]);
    ("fig3_invalidate/em3d/dirnnb/256K", [ 246154; 94360 ]);
    ("fig3_invalidate/em3d/stache/4K", [ 363435; 88872 ]);
    ("fig3_invalidate/em3d/stache/256K", [ 283614; 88872 ]);
    ("zoo_update/em3d/stache/256K", [ 507382; 83348 ]);
    ("zoo_update/em3d/migratory/256K", [ 509068; 83348 ]);
    ("zoo_update/em3d/prodcons/256K", [ 487115; 79039 ]);
    ("zoo_update/em3d/widerep/256K", [ 320651; 105414 ]);
    ("zoo_update/em3d/delayed/256K", [ 350536; 50088 ]);
    ("zoo_update/em3d/adaptive/256K", [ 320431; 105414 ]);
    ("zoo_update/mp3d/stache/256K", [ 214211; 28528 ]);
    ("zoo_update/mp3d/migratory/256K", [ 154530; 15596 ]);
    ("zoo_update/mp3d/prodcons/256K", [ 213019; 29324 ]);
    ("zoo_update/mp3d/widerep/256K", [ 212742; 29312 ]);
    ("zoo_update/mp3d/delayed/256K", [ 212089; 29076 ]);
    ("zoo_update/mp3d/adaptive/256K", [ 159130; 16728 ]);
    ("zoo_update/synthpc/stache/256K", [ 36308; 8064 ]);
    ("zoo_update/synthpc/migratory/256K", [ 36340; 8064 ]);
    ("zoo_update/synthpc/prodcons/256K", [ 31845; 7568 ]);
    ("zoo_update/synthpc/widerep/256K", [ 19197; 6576 ]);
    ("zoo_update/synthpc/delayed/256K", [ 21801; 4592 ]);
    ("zoo_update/synthpc/adaptive/256K", [ 19215; 6576 ]);
    ("zoo_update/synthmig/stache/256K", [ 12314; 1744 ]);
    ("zoo_update/synthmig/migratory/256K", [ 11395; 1472 ]);
    ("zoo_update/synthmig/prodcons/256K", [ 12648; 1881 ]);
    ("zoo_update/synthmig/widerep/256K", [ 12896; 1868 ]);
    ("zoo_update/synthmig/delayed/256K", [ 12876; 1824 ]);
    ("zoo_update/synthmig/adaptive/256K", [ 11982; 1666 ]);
    ("lossy_recover/mp3d/stache/clean", [ 269661; 24640 ]);
    ("lossy_recover/mp3d/stache/lossy", [ 330018; 43155 ]);
    ("lossy_recover/barnes/stache/clean", [ 314798; 21640 ]);
    ("lossy_recover/barnes/stache/lossy", [ 398660; 35524 ]);
    ("lossy_recover/em3d/stache/clean", [ 902425; 72328 ]);
    ("lossy_recover/em3d/stache/lossy", [ 1006833; 123979 ]);
    ("lossy_recover/mp3d/stache/crash-never", [ 269661; 1; 0; 4; 2; 0 ]);
    ("lossy_recover/mp3d/stache/crash-quick", [ 268591; 0; 0; 0; 5; 0 ]);
    ("lossy_recover/mp3d/stache/crash-late", [ 269661; 1; 0; 4; 2; 0 ]);
    ("lossy_recover/mp3d/dirnnb/crash-never", [ 259574; 1; 0; 7; 2; 0 ]);
    ("lossy_recover/mp3d/dirnnb/crash-quick", [ 263320; 0; 0; 0; 5; 0 ]);
    ("lossy_recover/mp3d/dirnnb/crash-late", [ 259574; 1; 0; 7; 2; 0 ]);
    ("lossy_recover/barnes/stache/crash-never", [ 314798; 1; 0; 3; 3; 1 ]);
    ("lossy_recover/barnes/stache/crash-quick", [ 315145; 0; 0; 0; 8; 0 ]);
    ("lossy_recover/barnes/stache/crash-late", [ 360191; 1; 1; 3; 8; 1 ]);
    ("lossy_recover/barnes/dirnnb/crash-never", [ 312819; 1; 0; 1; 3; 1 ]);
    ("lossy_recover/barnes/dirnnb/crash-quick", [ 313092; 0; 0; 0; 8; 0 ]);
    ("lossy_recover/barnes/dirnnb/crash-late", [ 360449; 1; 1; 1; 8; 1 ]);
  ]
