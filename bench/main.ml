(* Bench entry point: regenerates every figure of the paper's
   evaluation section (see DESIGN.md's per-experiment index) plus
   bechamel micro-benchmarks.

     dune exec bench/main.exe                  -- everything, default scale
     dune exec bench/main.exe -- --figure fig4 -- one figure
     dune exec bench/main.exe -- --steps 20 --step-size 2000 --runs 1

   Absolute numbers reflect the simulator scale; the reproduction
   target is the shape of each series (EXPERIMENTS.md records both). *)

let all_figures =
  [
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("fig13", Figures.fig13);
    ("ablations", Figures.ablations);
    ("extensions", Figures.extensions);
  ]

let () =
  let scale = ref Harness.default_scale in
  let which = ref "all" in
  let smoke = ref false in
  let set_steps n = scale := { !scale with Harness.steps = n } in
  let set_step_size n = scale := { !scale with Harness.step_size = n } in
  let set_runs n = scale := { !scale with Harness.runs = n } in
  let set_seed n = scale := { !scale with Harness.seed = n } in
  let set_block n = scale := { !scale with Harness.block_size = n } in
  let spec =
    [
      ("--figure", Arg.Set_string which, "fig4..fig13, ablations, extensions, micro, or all (default all)");
      ("--smoke", Arg.Set smoke, "CI smoke mode: run only the micro rows, tiny and fast");
      ("--steps", Arg.Int set_steps, "archived time steps (default 100)");
      ("--step-size", Arg.Int set_step_size, "elements per time step (default 10000)");
      ("--runs", Arg.Int set_runs, "independent seeds for error figures (default 3)");
      ("--seed", Arg.Int set_seed, "base RNG seed");
      ("--block-size", Arg.Int set_block, "elements per simulated disk block (default 256)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "hsq bench";
  let scale = !scale in
  Printf.printf
    "hsq bench: steps=%d step_size=%d runs=%d block_size=%d seed=%#x\n\
     (simulated block device; disk-access counts are exact, wall times are simulator-scale)\n%!"
    scale.Harness.steps scale.Harness.step_size scale.Harness.runs scale.Harness.block_size
    scale.Harness.seed;
  let t0 = Unix.gettimeofday () in
  (match if !smoke then "smoke" else !which with
  | "smoke" -> Micro.run ~smoke:true ()
  | "all" ->
    List.iter
      (fun (name, f) ->
        Printf.eprintf "[bench] %s...\n%!" name;
        f ~scale)
      all_figures;
    Micro.run ()
  | "micro" -> Micro.run ()
  | name -> (
    match List.assoc_opt name all_figures with
    | Some f -> f ~scale
    | None ->
      Printf.eprintf "unknown figure %S; available: %s, micro\n" name
        (String.concat ", " (List.map fst all_figures));
      exit 2));
  Printf.printf "\ntotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
