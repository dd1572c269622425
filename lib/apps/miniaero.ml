open Regions
open Ir
module Syn = Program.Syntax

type config = {
  nodes : int;
  pieces_per_node : int;
  piece_cells : int * int * int;
  timesteps : int;
}

(* Calibrated to the paper's ~1.5 x 10^6 cells/s/node (Fig. 7): 512k
   cells/node, 13 launches per step (save + 4 RK stages of flux, residual,
   update), ~0.34 s per step. *)
let flux_seconds_per_face = 0.30e-6
let residual_seconds_per_face = 0.20e-6
let update_seconds_per_cell = 0.13e-6
let save_seconds_per_cell = 0.10e-6
let rk_alphas = [| 0.25; 1. /. 3.; 0.5; 1. |]
let dt = 1e-3

let default ~nodes =
  { nodes; pieces_per_node = 10; piece_cells = (40, 40, 32); timesteps = 10 }

let sim_config ~nodes =
  (* 6x6x6 pieces keep the 1024-node instance (10240 pieces, ~6.6M faces)
     within a small memory budget; scale factors bridge to paper size. *)
  { nodes; pieces_per_node = 10; piece_cells = (6, 6, 6); timesteps = 10 }

let test_config ~nodes =
  { nodes; pieces_per_node = 2; piece_cells = (3, 3, 2); timesteps = 2 }

let cells_per_piece cfg =
  let x, y, z = cfg.piece_cells in
  x * y * z

let scale cfg =
  let full = default ~nodes:cfg.nodes in
  let compute =
    float_of_int (cells_per_piece full) /. float_of_int (cells_per_piece cfg)
  in
  let surface (x, y, z) = 2 * ((x * y) + (y * z) + (x * z)) in
  let copy =
    float_of_int (surface full.piece_cells)
    /. float_of_int (surface cfg.piece_cells)
  in
  Legion.Scale.make ~compute ~copy

let frho = Field.make "rho"
let fe = Field.make "energy"
let frho0 = Field.make "rho0"
let fe0 = Field.make "energy0"
let frrho = Field.make "res_rho"
let fre = Field.make "res_energy"
let fflux_rho = Field.make "flux_rho"
let fflux_e = Field.make "flux_energy"
let flc = Field.make "left_cell"
let frc = Field.make "right_cell"

(* Near-cubic factorization for the global piece grid. *)
let factor3 n =
  let best = ref (1, 1, n) and best_s = ref max_int in
  let lim = int_of_float (Float.cbrt (float_of_int n)) + 1 in
  for a = 1 to lim do
    if n mod a = 0 then begin
      let m = n / a in
      for b = a to int_of_float (sqrt (float_of_int m)) + 1 do
        if b >= 1 && m mod b = 0 then begin
          let c = m / b in
          let s = (a * b) + (b * c) + (a * c) in
          if s < !best_s then begin
            best := (a, b, c);
            best_s := s
          end
        end
      done
    end
  done;
  !best

(* The generated mesh: per-piece cell and face sets, halos, and face
   endpoints. *)
type mesh = {
  pieces : int;
  n_cells : int;
  n_faces : int;
  face_lc : int array;
  face_rc : int array;
  cell_sets : Geometry.Sorted_iset.t array;
  face_sets : Geometry.Sorted_iset.t array; (* faces owned by piece *)
  cell_halos : Geometry.Sorted_iset.t array;
      (* remote cells read by owned faces *)
  face_halos : Geometry.Sorted_iset.t array;
      (* remote faces touching own cells *)
}

let generate cfg =
  let pieces = cfg.nodes * cfg.pieces_per_node in
  let bx, by, bz = cfg.piece_cells in
  let gx, gy, gz = factor3 pieces in
  let cpp = bx * by * bz in
  let cx = gx * bx and cy = gy * by and cz = gz * bz in
  let n_cells = pieces * cpp in
  (* Global cell coordinates -> piece-major id. *)
  let cell_id x y z =
    let px = x / bx and py = y / by and pz = z / bz in
    let piece = px + (gx * (py + (gy * pz))) in
    let lx = x mod bx and ly = y mod by and lz = z mod bz in
    (piece * cpp) + lx + (bx * (ly + (by * lz)))
  in
  let piece_of_cell c = c / cpp in
  (* Faces are owned by the piece of their left (lower) cell; ids are
     assigned piece-major. The mesh is periodic, so every cell has exactly
     three owned faces and weak scaling is free of boundary artifacts. *)
  let per_piece_faces = Array.make pieces [] in
  let add_face c1 c2 =
    per_piece_faces.(piece_of_cell c1) <- (c1, c2) :: per_piece_faces.(piece_of_cell c1)
  in
  for z = 0 to cz - 1 do
    for y = 0 to cy - 1 do
      for x = 0 to cx - 1 do
        let c = cell_id x y z in
        if cx > 1 then add_face c (cell_id ((x + 1) mod cx) y z);
        if cy > 1 then add_face c (cell_id x ((y + 1) mod cy) z);
        if cz > 1 then add_face c (cell_id x y ((z + 1) mod cz))
      done
    done
  done;
  let n_faces = Array.fold_left (fun a l -> a + List.length l) 0 per_piece_faces in
  let face_lc = Array.make n_faces 0 and face_rc = Array.make n_faces 0 in
  let face_sets = Array.make pieces Geometry.Sorted_iset.empty in
  let next = ref 0 in
  Array.iteri
    (fun p faces ->
      let first = !next in
      List.iter
        (fun (c1, c2) ->
          face_lc.(!next) <- c1;
          face_rc.(!next) <- c2;
          incr next)
        (List.rev faces);
      face_sets.(p) <- Geometry.Sorted_iset.range first (!next - 1))
    per_piece_faces;
  let cell_sets =
    Array.init pieces (fun p ->
        Geometry.Sorted_iset.range (p * cpp) (((p + 1) * cpp) - 1))
  in
  (* Halos. *)
  let cell_halo_extra = Array.make pieces []
  and face_halo_extra = Array.make pieces [] in
  for f = 0 to n_faces - 1 do
    let p = piece_of_cell face_lc.(f) in
    let q = piece_of_cell face_rc.(f) in
    if q <> p then begin
      (* The owner reads the remote right cell; the right cell's piece
         reads this remotely-owned face. *)
      cell_halo_extra.(p) <- face_rc.(f) :: cell_halo_extra.(p);
      face_halo_extra.(q) <- f :: face_halo_extra.(q)
    end
  done;
  (* Halos hold only remote elements: own data is read through the
     disjoint partitions, so copies move exactly the boundary exchange. *)
  let cell_halos =
    Array.init pieces (fun p ->
        Geometry.Sorted_iset.of_list cell_halo_extra.(p))
  and face_halos =
    Array.init pieces (fun p ->
        Geometry.Sorted_iset.of_list face_halo_extra.(p))
  in
  { pieces; n_cells; n_faces; face_lc; face_rc; cell_sets; face_sets;
    cell_halos; face_halos }

let program cfg =
  let m = generate cfg in
  let b = Program.Builder.create ~name:"miniaero" in
  let cells =
    Program.Builder.region b ~name:"cells"
      (Index_space.of_range m.n_cells)
      [ frho; fe; frho0; fe0; frrho; fre ]
  in
  let faces =
    Program.Builder.region b ~name:"faces"
      (Index_space.of_range m.n_faces)
      [ fflux_rho; fflux_e; flc; frc ]
  in
  let ciset s = Index_space.of_iset ~universe_size:m.n_cells s in
  let fiset s = Index_space.of_iset ~universe_size:m.n_faces s in
  let _cells_p =
    Program.Builder.partition b ~name:"cells_p" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true cells
          (Array.map ciset m.cell_sets))
  in
  let _chalo =
    Program.Builder.partition b ~name:"chalo" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:false cells
          (Array.map ciset m.cell_halos))
  in
  let _faces_p =
    Program.Builder.partition b ~name:"faces_p" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true faces
          (Array.map fiset m.face_sets))
  in
  let _fhalo =
    Program.Builder.partition b ~name:"fhalo" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:false faces
          (Array.map fiset m.face_halos))
  in
  Program.Builder.space b ~name:"P" m.pieces;
  let compute_flux =
    Task.make ~name:"compute_flux"
      ~params:
        [
          {
            Task.pname = "faces";
            privs =
              [
                Privilege.writes fflux_rho;
                Privilege.writes fflux_e;
                Privilege.reads flc;
                Privilege.reads frc;
              ];
          };
          { Task.pname = "cells"; privs = [ Privilege.reads frho; Privilege.reads fe ] };
          { Task.pname = "chalo"; privs = [ Privilege.reads frho; Privilege.reads fe ] };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. flux_seconds_per_face)
      (fun accs _ ->
        let fs = accs.(0) and own = accs.(1) and halo = accs.(2) in
        let lcs = Accessor.read_column fs flc
        and rcs = Accessor.read_column fs frc
        and flux_rho = Accessor.write_column fs fflux_rho
        and flux_e = Accessor.write_column fs fflux_e in
        let rho_own = Accessor.read_column own frho
        and rho_halo = Accessor.read_column halo frho
        and e_own = Accessor.read_column own fe
        and e_halo = Accessor.read_column halo fe in
        (* A cell is read from [own] at [k] when [k >= 0], otherwise from
           [halo] at [h]; the halo lookup raises when the cell is in
           neither argument. *)
        let[@inline] halo_index c k =
          if k >= 0 then -1 else Accessor.run_base halo c c
        in
        let[@inline] cell own_col halo_col k h =
          if k >= 0 then own_col.(k) else halo_col.(h)
        in
        Accessor.iter_runs fs (fun lo hi ->
            let b = Accessor.run_base fs lo hi in
            for i = b to b + hi - lo do
              let lc = int_of_float lcs.(i) and rc = int_of_float rcs.(i) in
              let kl = Accessor.index own lc and kr = Accessor.index own rc in
              let hl = halo_index lc kl and hr = halo_index rc kr in
              (* Central flux: conservative by construction. *)
              flux_rho.(i) <-
                0.5
                *. (cell rho_own rho_halo kl hl +. cell rho_own rho_halo kr hr);
              flux_e.(i) <-
                0.5 *. (cell e_own e_halo kl hl +. cell e_own e_halo kr hr)
            done);
        0.)
  in
  let residual =
    let face_privs =
      [
        Privilege.reads fflux_rho;
        Privilege.reads fflux_e;
        Privilege.reads flc;
        Privilege.reads frc;
      ]
    in
    Task.make ~name:"residual"
      ~params:
        [
          {
            Task.pname = "cells";
            privs = [ Privilege.writes frrho; Privilege.writes fre ];
          };
          { Task.pname = "faces"; privs = face_privs };
          { Task.pname = "fhalo"; privs = face_privs };
        ]
      (* Cost from own faces only: halo faces are a few percent and scale
         with surface, not volume, so including them would distort the
         reduced-instance extrapolation. *)
      ~cost:(fun sizes -> float_of_int sizes.(1) *. residual_seconds_per_face)
      (fun accs _ ->
        let cs = accs.(0) in
        let rrho = Accessor.write_column cs frrho
        and re = Accessor.write_column cs fre in
        Accessor.iter_runs cs (fun lo hi ->
            let b = Accessor.run_base cs lo hi in
            Array.fill rrho b (hi - lo + 1) 0.;
            Array.fill re b (hi - lo + 1) 0.);
        let gather fs =
          let lcs = Accessor.read_column fs flc
          and rcs = Accessor.read_column fs frc
          and flux_rho = Accessor.read_column fs fflux_rho
          and flux_e = Accessor.read_column fs fflux_e in
          Accessor.iter_runs fs (fun lo hi ->
              let b = Accessor.run_base fs lo hi in
              for i = b to b + hi - lo do
                let fr = flux_rho.(i) and fen = flux_e.(i) in
                let kl = Accessor.index cs (int_of_float lcs.(i)) in
                if kl >= 0 then begin
                  rrho.(kl) <- rrho.(kl) -. fr;
                  re.(kl) <- re.(kl) -. fen
                end;
                let kr = Accessor.index cs (int_of_float rcs.(i)) in
                if kr >= 0 then begin
                  rrho.(kr) <- rrho.(kr) +. fr;
                  re.(kr) <- re.(kr) +. fen
                end
              done)
        in
        gather accs.(1);
        gather accs.(2);
        0.)
  in
  let rk_update k =
    let alpha = rk_alphas.(k) in
    Task.make ~name:(Printf.sprintf "rk_update%d" k)
      ~params:
        [
          {
            Task.pname = "cells";
            privs =
              [
                Privilege.writes frho;
                Privilege.writes fe;
                Privilege.reads frho0;
                Privilege.reads fe0;
                Privilege.reads frrho;
                Privilege.reads fre;
              ];
          };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. update_seconds_per_cell)
      (fun accs _ ->
        let cs = accs.(0) in
        let rho0 = Accessor.read_column cs frho0
        and e0 = Accessor.read_column cs fe0
        and rrho = Accessor.read_column cs frrho
        and re = Accessor.read_column cs fre
        and rho = Accessor.write_column cs frho
        and e = Accessor.write_column cs fe in
        Accessor.iter_runs cs (fun lo hi ->
            let b = Accessor.run_base cs lo hi in
            for i = b to b + hi - lo do
              rho.(i) <- rho0.(i) +. (alpha *. dt *. rrho.(i));
              e.(i) <- e0.(i) +. (alpha *. dt *. re.(i))
            done);
        0.)
  in
  let save_state =
    Task.make ~name:"save_state"
      ~params:
        [
          {
            Task.pname = "cells";
            privs =
              [
                Privilege.writes frho0;
                Privilege.writes fe0;
                Privilege.reads frho;
                Privilege.reads fe;
              ];
          };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. save_seconds_per_cell)
      (fun accs _ ->
        let cs = accs.(0) in
        let rho = Accessor.read_column cs frho
        and e = Accessor.read_column cs fe
        and rho0 = Accessor.write_column cs frho0
        and e0 = Accessor.write_column cs fe0 in
        Accessor.iter_runs cs (fun lo hi ->
            let b = Accessor.run_base cs lo hi and n = hi - lo + 1 in
            Array.blit rho b rho0 b n;
            Array.blit e b e0 b n);
        0.)
  in
  let init_cells =
    Task.make ~name:"init_cells"
      ~params:
        [
          {
            Task.pname = "cells";
            privs =
              [
                Privilege.writes frho;
                Privilege.writes fe;
                Privilege.writes frho0;
                Privilege.writes fe0;
                Privilege.writes frrho;
                Privilege.writes fre;
              ];
          };
        ]
      (fun accs _ ->
        let cs = accs.(0) in
        let w = Array.map (Accessor.write_column cs) [| frho; fe; frho0; fe0; frrho; fre |] in
        Accessor.iter_runs cs (fun lo hi ->
            let b = Accessor.run_base cs lo hi in
            for c = lo to hi do
              let i = b + c - lo in
              w.(0).(i) <- 1. +. (0.1 *. float_of_int ((c * 13) mod 17) /. 17.);
              w.(1).(i) <- 2.5 +. (0.2 *. float_of_int ((c * 7) mod 23) /. 23.);
              for k = 2 to 5 do
                w.(k).(i) <- 0.
              done
            done);
        0.)
  in
  let init_faces =
    Task.make ~name:"init_faces"
      ~params:
        [
          {
            Task.pname = "faces";
            privs =
              [
                Privilege.writes fflux_rho;
                Privilege.writes fflux_e;
                Privilege.writes flc;
                Privilege.writes frc;
              ];
          };
        ]
      (fun accs _ ->
        let fs = accs.(0) in
        let flux_rho = Accessor.write_column fs fflux_rho
        and flux_e = Accessor.write_column fs fflux_e
        and lc = Accessor.write_column fs flc
        and rc = Accessor.write_column fs frc in
        Accessor.iter_runs fs (fun lo hi ->
            let b = Accessor.run_base fs lo hi in
            for f = lo to hi do
              let i = b + f - lo in
              flux_rho.(i) <- 0.;
              flux_e.(i) <- 0.;
              lc.(i) <- float_of_int m.face_lc.(f);
              rc.(i) <- float_of_int m.face_rc.(f)
            done);
        0.)
  in
  Program.Builder.task b compute_flux;
  Program.Builder.task b residual;
  Array.iteri (fun k _ -> Program.Builder.task b (rk_update k)) rk_alphas;
  Program.Builder.task b save_state;
  Program.Builder.task b init_cells;
  Program.Builder.task b init_faces;
  let stage k =
    [
      Syn.forall "P"
        (Syn.call "compute_flux"
           [ Syn.part "faces_p"; Syn.part "cells_p"; Syn.part "chalo" ]);
      Syn.forall "P"
        (Syn.call "residual"
           [ Syn.part "cells_p"; Syn.part "faces_p"; Syn.part "fhalo" ]);
      Syn.forall "P" (Syn.call (Printf.sprintf "rk_update%d" k) [ Syn.part "cells_p" ]);
    ]
  in
  Program.Builder.body b
    [
      Syn.run (Syn.call "init_cells" [ Syn.whole "cells" ]);
      Syn.run (Syn.call "init_faces" [ Syn.whole "faces" ]);
      Syn.for_time "t" cfg.timesteps
        (Syn.forall "P" (Syn.call "save_state" [ Syn.part "cells_p" ])
        :: List.concat_map stage [ 0; 1; 2; 3 ]);
    ];
  Program.Builder.finish b

let total_mass ctx prog =
  let cells = Program.find_region prog "cells" in
  let inst = Interp.Run.region_instance ctx cells in
  Index_space.fold_ids
    (fun acc id -> acc +. Physical.get inst frho id)
    0. cells.Region.ispace

module Reference = struct
  type variant = Rank_per_core | Rank_per_node

  (* The MPI+Kokkos reference: the Regent version is faster per node
     (Legion's hybrid data layouts, §5.2) — modelled as a layout penalty on
     the reference kernels. Rank-per-node starts better than rank-per-core
     (fewer, larger messages and no intra-node MPI), but a surface-growth
     penalty with scale pulls it to the rank-per-core level, as in
     Fig. 7. *)
  let per_step machine cfg variant =
    let cpp = cells_per_piece cfg in
    let cells_per_node = cfg.pieces_per_node * cpp in
    let faces_per_node = 3 * cells_per_node in
    let layout_penalty = 1.25 in
    let core_seconds =
      layout_penalty
      *. ((float_of_int faces_per_node
          *. (flux_seconds_per_face +. residual_seconds_per_face)
          *. 4.)
         +. (float_of_int cells_per_node
            *. ((update_seconds_per_cell *. 4.) +. save_seconds_per_cell)))
    in
    let base = core_seconds /. float_of_int machine.Realm.Machine.cores_per_node in
    let nodes = machine.Realm.Machine.nodes in
    let x, y, z = cfg.piece_cells in
    let surface_cells = 2 * ((x * y) + (y * z) + (x * z)) in
    match variant with
    | Rank_per_core ->
        (* Many small messages every stage: latency-dominated. *)
        let msgs = 4. *. 6. *. float_of_int machine.Realm.Machine.cores_per_node in
        let bytes =
          float_of_int surface_cells *. machine.Realm.Machine.bytes_per_element
        in
        let comm =
          if nodes = 1 then 0.
          else
            msgs
            *. (machine.Realm.Machine.network_latency
               +. (bytes /. machine.Realm.Machine.network_bandwidth))
        in
        base +. comm +. (0.004 *. base *. sqrt (log (float_of_int (max 2 (nodes * 12)))))
    | Rank_per_node ->
        (* Fewer larger messages, but a synchronisation-imbalance term that
           grows with node count erodes the initial advantage. *)
        let bytes =
          float_of_int (surface_cells * cfg.pieces_per_node)
          *. machine.Realm.Machine.bytes_per_element
        in
        let comm =
          if nodes = 1 then 0.
          else
            24.
            *. (machine.Realm.Machine.network_latency
               +. (bytes /. machine.Realm.Machine.network_bandwidth))
        in
        (base /. 1.12) +. comm
        +. (0.045 *. base *. sqrt (log (float_of_int (max 2 nodes))))
  end
