(* Application validation: physical invariants, closed-form answers where
   available, and end-to-end control-replication equivalence for each of
   the four evaluation codes. *)

open Geometry
open Regions
open Ir

let check = Alcotest.check

let run_seq prog =
  let ctx = Interp.Run.create prog in
  Interp.Run.run ctx;
  ctx

let run_cr ?(shards = 3) ?(config = None) prog =
  let config =
    match config with Some c -> c | None -> Cr.Pipeline.default ~shards
  in
  let compiled = Cr.Pipeline.compile config prog in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  Spmd.Exec.run ~sched:(`Random 11) compiled ctx;
  (ctx, compiled)

let region_data ctx prog =
  List.concat_map
    (fun rname ->
      let r = Program.find_region prog rname in
      let inst = Interp.Run.region_instance ctx r in
      List.map
        (fun f -> (rname, Field.name f, Physical.to_alist inst f))
        r.Region.fields)
    (Program.region_names prog)

let equivalent mk ~shards =
  let p1 = mk () in
  let c1 = run_seq p1 in
  let p2 = mk () in
  let c2, _ = run_cr ~shards p2 in
  region_data c1 p1 = region_data c2 p2
  && List.sort compare (Interp.Run.scalars c1)
     = List.sort compare (Interp.Run.scalars c2)

(* ---------- stencil ---------- *)

let test_stencil_closed_form () =
  let cfg = Apps.Stencil.test_config ~nodes:4 in
  let prog = Apps.Stencil.program cfg in
  let ctx = run_seq prog in
  let grid = Program.find_region prog "grid" in
  let inst = Interp.Run.region_instance ctx grid in
  let u =
    match Index_space.bounding_rect grid.Region.ispace with
    | Some r -> r
    | None -> Alcotest.fail "empty grid"
  in
  let fout = Field.make "out" in
  (* Every interior point must match the closed form exactly. *)
  let r = cfg.Apps.Stencil.radius in
  let w = Rect.extent u 0 and h = Rect.extent u 1 in
  let errors = ref 0 in
  for x = r to w - 1 - r do
    for y = r to h - 1 - r do
      let got = Physical.get inst fout (Rect.linearize u (Point.make2 x y)) in
      let want = Apps.Stencil.expected_output cfg ~x ~y in
      if Float.abs (got -. want) > 1e-9 *. Float.max 1. (Float.abs want) then
        incr errors
    done
  done;
  check Alcotest.int "interior points match closed form" 0 !errors

let test_stencil_cr_equivalent () =
  check Alcotest.bool "stencil CR == sequential" true
    (equivalent (fun () -> Apps.Stencil.program (Apps.Stencil.test_config ~nodes:4)) ~shards:4)

let test_stencil_halo_is_remote_only () =
  let cfg = Apps.Stencil.test_config ~nodes:2 in
  let prog = Apps.Stencil.program cfg in
  let tiles = Program.find_partition prog "tiles"
  and halos = Program.find_partition prog "halos" in
  for c = 0 to Partition.color_count tiles - 1 do
    check Alcotest.bool "halo excludes own tile" true
      (Index_space.disjoint (Partition.sub tiles c).Region.ispace
         (Partition.sub halos c).Region.ispace)
  done

(* ---------- circuit ---------- *)

let test_circuit_conservation () =
  let cfg = Apps.Circuit.test_config ~nodes:3 in
  let initial =
    let p = Apps.Circuit.program { cfg with Apps.Circuit.timesteps = 0 } in
    Apps.Circuit.total_node_charge (run_seq p) p
  in
  let prog = Apps.Circuit.program cfg in
  let final = Apps.Circuit.total_node_charge (run_seq prog) prog in
  check Alcotest.bool "total charge conserved" true
    (Float.abs (final -. initial) < 1e-9 *. Float.abs initial)

let test_circuit_cr_equivalent () =
  check Alcotest.bool "circuit CR == sequential" true
    (equivalent (fun () -> Apps.Circuit.program (Apps.Circuit.test_config ~nodes:3)) ~shards:3)

let test_circuit_hierarchy () =
  (* The §4.5 structure: private partitions provably disjoint from ghost. *)
  let prog = Apps.Circuit.program (Apps.Circuit.test_config ~nodes:2) in
  let pvt = Program.find_partition prog "pvt"
  and ghost = Program.find_partition prog "ghost"
  and shr = Program.find_partition prog "shr" in
  check Alcotest.bool "pvt vs ghost disjoint (hierarchical)" false
    (Cr.Alias.may_alias ~hierarchical:true prog.Program.tree pvt ghost);
  check Alcotest.bool "shr vs ghost alias" true
    (Cr.Alias.may_alias ~hierarchical:true prog.Program.tree shr ghost);
  check Alcotest.bool "flat analysis loses it" true
    (Cr.Alias.may_alias ~hierarchical:false prog.Program.tree pvt ghost)

let test_circuit_ghost_nonempty () =
  let prog = Apps.Circuit.program (Apps.Circuit.test_config ~nodes:3) in
  let ghost = Program.find_partition prog "ghost" in
  let total =
    List.fold_left
      (fun acc c -> acc + Region.cardinal (Partition.sub ghost c))
      0
      (List.init (Partition.color_count ghost) Fun.id)
  in
  check Alcotest.bool "cross-piece wires produce ghosts" true (total > 0)

(* ---------- miniaero ---------- *)

let test_miniaero_conservation () =
  let cfg = Apps.Miniaero.test_config ~nodes:2 in
  let initial =
    let p = Apps.Miniaero.program { cfg with Apps.Miniaero.timesteps = 0 } in
    Apps.Miniaero.total_mass (run_seq p) p
  in
  let prog = Apps.Miniaero.program cfg in
  let final = Apps.Miniaero.total_mass (run_seq prog) prog in
  check Alcotest.bool "total mass conserved" true
    (Float.abs (final -. initial) < 1e-9 *. Float.abs initial)

let test_miniaero_cr_equivalent () =
  check Alcotest.bool "miniaero CR == sequential" true
    (equivalent (fun () -> Apps.Miniaero.program (Apps.Miniaero.test_config ~nodes:2)) ~shards:2)

let test_miniaero_uniform_flow () =
  (* A uniform state has equal fluxes on all faces of the periodic mesh, so
     residuals vanish and the state is a fixed point. Run one step from a
     uniform init by zeroing the variation: we emulate it by checking that
     residual contributions cancel per cell — total mass conservation is
     bitwise, checked above; here spot-check the state stays uniform if it
     starts uniform. *)
  let cfg = Apps.Miniaero.test_config ~nodes:1 in
  let prog = Apps.Miniaero.program cfg in
  let ctx = Interp.Run.create prog in
  (* Overwrite the init: run setup, then force uniformity, then the loop. *)
  (match prog.Program.body with
  | setup1 :: setup2 :: loop ->
      Interp.Run.run_stmts ctx [ setup1; setup2 ];
      let cells = Program.find_region prog "cells" in
      let inst = Interp.Run.region_instance ctx cells in
      let frho = Field.make "rho" and fe = Field.make "energy" in
      Index_space.iter_ids
        (fun id ->
          Physical.set inst frho id 1.;
          Physical.set inst fe id 2.5)
        cells.Region.ispace;
      Interp.Run.run_stmts ctx loop;
      let uniform = ref true in
      Index_space.iter_ids
        (fun id -> if Physical.get inst frho id <> 1. then uniform := false)
        cells.Region.ispace;
      check Alcotest.bool "uniform flow preserved" true !uniform
  | _ -> Alcotest.fail "unexpected program shape")

(* ---------- pennant ---------- *)

let test_pennant_momentum () =
  let prog = Apps.Pennant.program (Apps.Pennant.test_config ~nodes:2) in
  let ctx = run_seq prog in
  let mx, my = Apps.Pennant.total_momentum ctx prog in
  check Alcotest.bool "momentum conserved" true
    (Float.abs mx < 1e-9 && Float.abs my < 1e-9)

let test_pennant_cr_equivalent () =
  check Alcotest.bool "pennant CR == sequential (incl. dt collective)" true
    (equivalent (fun () -> Apps.Pennant.program (Apps.Pennant.test_config ~nodes:2)) ~shards:2)

let test_pennant_dt_decreases () =
  (* The min-reduction replaces the initial placeholder: the CFL estimate
     0.05*sqrt(vol)/(1+|p|) is bounded by 0.05 and strictly positive, and
     the hot zone's pressure keeps it strictly below the zero-pressure
     bound. *)
  let prog = Apps.Pennant.program (Apps.Pennant.test_config ~nodes:2) in
  let ctx = run_seq prog in
  let dt = Interp.Run.scalar ctx "dt" in
  check Alcotest.bool "dt in CFL range" true (dt > 0. && dt < 0.05);
  check Alcotest.bool "dt replaced the initial value" true (dt <> 1e-3)

(* ---------- cross-app: all configs agree ---------- *)

let test_apps_config_invariance () =
  let apps =
    [
      ("stencil", fun () -> Apps.Stencil.program (Apps.Stencil.test_config ~nodes:2));
      ("circuit", fun () -> Apps.Circuit.program (Apps.Circuit.test_config ~nodes:2));
      ("pennant", fun () -> Apps.Pennant.program (Apps.Pennant.test_config ~nodes:2));
    ]
  in
  List.iter
    (fun (name, mk) ->
      let p1 = mk () in
      let d1 = region_data (run_seq p1) p1 in
      List.iter
        (fun config ->
          let p2 = mk () in
          let ctx2, _ = run_cr ~config:(Some config) p2 in
          check Alcotest.bool (name ^ " config-invariant") true
            (region_data ctx2 p2 = d1))
        [
          { (Cr.Pipeline.default ~shards:2) with Cr.Pipeline.sync = `Barrier };
          { (Cr.Pipeline.default ~shards:2) with Cr.Pipeline.hierarchical = false };
          { (Cr.Pipeline.default ~shards:2) with Cr.Pipeline.intersections = `Dense };
        ])
    apps

(* ---------- run-window kernels ---------- *)

(* Exec-style arguments of [task] for color [c] of a stencil program:
   one instance per argument, each a full view of its subregion. *)
let stencil_args prog (task : Task.t) c pnames =
  let fields = (Program.find_region prog "grid").Region.fields in
  Array.of_list
    (List.mapi
       (fun k pname ->
         let space =
           (Partition.sub (Program.find_partition prog pname) c).Region.ispace
         in
         let inst = Physical.create_over space fields in
         Index_space.iter_ids
           (fun id ->
             List.iter
               (fun f -> Physical.set inst f id (Float.of_int id))
               fields)
           space;
         Accessor.make inst ~space (Task.param_privs task k))
       pnames)

let test_stencil_radius_beyond_halo () =
  (* A radius-2 kernel handed radius-1 halos must not read past them:
     the window path falls back to per-point lookups, which raise. *)
  let cfg r =
    { (Apps.Stencil.test_config ~nodes:1) with Apps.Stencil.radius = r }
  in
  let p1 = Apps.Stencil.program (cfg 1) and p2 = Apps.Stencil.program (cfg 2) in
  let kernel2 = (Program.find_task p2 "stencil").Task.kernel in
  let task = Program.find_task p1 "stencil" in
  let args prog = stencil_args prog task 0 [ "tiles"; "tiles"; "halos" ] in
  ignore (kernel2 (args p2) [||]);
  ignore (task.Task.kernel (args p1) [||]);
  check Alcotest.bool "radius-2 kernel over radius-1 halo raises" true
    (match kernel2 (args p1) [||] with
    | _ -> false
    | exception Accessor.Privilege_violation _ -> true)

let test_stencil_kernels_allocation_free () =
  (* 64x64 tiles (4 per node at 128^2 points/node). The first call warms
     up; the second must allocate less than one minor word per point —
     only per-call set-up, nothing per point or per neighbour read. *)
  let cfg =
    { (Apps.Stencil.test_config ~nodes:1) with
      Apps.Stencil.points_per_node = 128 * 128; tiles_per_node = 4 }
  in
  let prog = Apps.Stencil.program cfg in
  let c = 3 in
  let stencil = Program.find_task prog "stencil"
  and increment = Program.find_task prog "increment" in
  let sargs = stencil_args prog stencil c [ "tiles"; "tiles"; "halos" ]
  and iargs = stencil_args prog increment c [ "tiles" ] in
  let points = Accessor.cardinal sargs.(0) in
  check Alcotest.int "64^2 tile" (64 * 64) points;
  List.iter
    (fun (name, (task : Task.t), args) ->
      ignore (task.Task.kernel args [||]);
      let w0 = Gc.minor_words () in
      ignore (task.Task.kernel args [||]);
      let per = (Gc.minor_words () -. w0) /. Float.of_int points in
      check Alcotest.bool
        (Printf.sprintf "%s: %.3f minor words per point < 1" name per)
        true (per < 1.))
    [ ("stencil", stencil, sargs); ("increment", increment, iargs) ]

let () =
  Alcotest.run "applications"
    [
      ( "stencil",
        [
          Alcotest.test_case "closed form" `Quick test_stencil_closed_form;
          Alcotest.test_case "CR equivalence" `Quick test_stencil_cr_equivalent;
          Alcotest.test_case "halo remote-only" `Quick
            test_stencil_halo_is_remote_only;
          Alcotest.test_case "radius beyond halo raises" `Quick
            test_stencil_radius_beyond_halo;
          Alcotest.test_case "kernels allocation-free" `Quick
            test_stencil_kernels_allocation_free;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "charge conservation" `Quick
            test_circuit_conservation;
          Alcotest.test_case "CR equivalence" `Quick test_circuit_cr_equivalent;
          Alcotest.test_case "hierarchical tree" `Quick test_circuit_hierarchy;
          Alcotest.test_case "ghosts exist" `Quick test_circuit_ghost_nonempty;
        ] );
      ( "miniaero",
        [
          Alcotest.test_case "mass conservation" `Quick
            test_miniaero_conservation;
          Alcotest.test_case "CR equivalence" `Quick test_miniaero_cr_equivalent;
          Alcotest.test_case "uniform flow fixed point" `Quick
            test_miniaero_uniform_flow;
        ] );
      ( "pennant",
        [
          Alcotest.test_case "momentum conservation" `Quick
            test_pennant_momentum;
          Alcotest.test_case "CR equivalence" `Quick test_pennant_cr_equivalent;
          Alcotest.test_case "dt reduction" `Quick test_pennant_dt_decreases;
        ] );
      ( "config-invariance",
        [ Alcotest.test_case "all configs agree" `Quick test_apps_config_invariance ] );
    ]
