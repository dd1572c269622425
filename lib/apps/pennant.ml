open Regions
open Ir
module Syn = Program.Syntax

type config = {
  nodes : int;
  pieces_per_node : int;
  piece_zones : int * int;
  timesteps : int;
}

(* Calibrated to the paper's ~20 x 10^6 zones/s/node (Fig. 8): 7.4M
   zones/node in 11 pieces on the 11 compute cores gives a ~0.27 s step.
   The reference codes use all 12 cores and are correspondingly faster on
   a single node. *)
let eos_seconds_per_zone = 0.0825e-6
let forces_seconds_per_zone = 0.165e-6
let move_seconds_per_point = 0.11e-6
let update_seconds_per_zone = 0.1375e-6
let dt_seconds_per_zone = 0.055e-6
let task_noise = 0.025

let default ~nodes =
  { nodes; pieces_per_node = 11; piece_zones = (819, 819); timesteps = 10 }

let sim_config ~nodes =
  { nodes; pieces_per_node = 11; piece_zones = (24, 24); timesteps = 10 }

let test_config ~nodes =
  { nodes; pieces_per_node = 2; piece_zones = (4, 3); timesteps = 3 }

let zones_per_piece cfg =
  let x, y = cfg.piece_zones in
  x * y

let scale cfg =
  let full = default ~nodes:cfg.nodes in
  let compute =
    float_of_int (zones_per_piece full) /. float_of_int (zones_per_piece cfg)
  in
  let copy =
    float_of_int (fst full.piece_zones) /. float_of_int (fst cfg.piece_zones)
  in
  Legion.Scale.make ~compute ~copy

let fzp = Field.make "zp"
let fzrho = Field.make "zrho"
let fze = Field.make "ze"
let fzvol = Field.make "zvol"
let fzm = Field.make "zm"
let fpt = Array.init 4 (fun k -> Field.make (Printf.sprintf "zpt%d" k))
let fppx = Field.make "ppx"
let fppy = Field.make "ppy"
let fpvx = Field.make "pvx"
let fpvy = Field.make "pvy"
let fpfx = Field.make "pfx"
let fpfy = Field.make "pfy"
let fpm = Field.make "pm"

let near_square n =
  let a = ref 1 in
  for d = 1 to int_of_float (sqrt (float_of_int n)) do
    if n mod d = 0 then a := d
  done;
  (!a, n / !a)

type mesh = {
  pieces : int;
  n_zones : int;
  n_points : int;
  zone_pts : int array array; (* zone -> 4 corner point ids *)
  private_sets : Geometry.Sorted_iset.t array;
  shared_sets : Geometry.Sorted_iset.t array;
  ghost_sets : Geometry.Sorted_iset.t array;
  all_private : Geometry.Sorted_iset.t;
  all_shared : Geometry.Sorted_iset.t;
}

let generate cfg =
  let pieces = cfg.nodes * cfg.pieces_per_node in
  let zx, zy = cfg.piece_zones in
  let gx, gy = near_square pieces in
  let w = gx * zx and h = gy * zy in
  let n_zones = pieces * zx * zy in
  let n_points = (w + 1) * (h + 1) in
  let point_id x y = (y * (w + 1)) + x in
  (* Zone ids are piece-major. *)
  let zone_id gx_ gy_ =
    let px = gx_ / zx and py = gy_ / zy in
    let piece = px + (gx * py) in
    (piece * zx * zy) + (gx_ mod zx) + (zx * (gy_ mod zy))
  in
  let zone_pts = Array.make n_zones [||] in
  for gy_ = 0 to h - 1 do
    for gx_ = 0 to w - 1 do
      zone_pts.(zone_id gx_ gy_) <-
        [|
          point_id gx_ gy_;
          point_id (gx_ + 1) gy_;
          point_id gx_ (gy_ + 1);
          point_id (gx_ + 1) (gy_ + 1);
        |]
    done
  done;
  (* Pieces touching a point: the pieces of its up-to-four adjacent
     zones. *)
  let pieces_of_point x y =
    let acc = ref [] in
    List.iter
      (fun (dx, dy) ->
        let zx_ = x + dx and zy_ = y + dy in
        if zx_ >= 0 && zx_ < w && zy_ >= 0 && zy_ < h then begin
          let p = (zx_ / zx) + (gx * (zy_ / zy)) in
          if not (List.mem p !acc) then acc := p :: !acc
        end)
      [ (-1, -1); (0, -1); (-1, 0); (0, 0) ];
    List.sort compare !acc
  in
  let private_l = Array.make pieces []
  and shared_l = Array.make pieces []
  and ghost_l = Array.make pieces [] in
  for y = 0 to h do
    for x = 0 to w do
      let id = point_id x y in
      match pieces_of_point x y with
      | [] -> ()
      | [ p ] -> private_l.(p) <- id :: private_l.(p)
      | owner :: others ->
          shared_l.(owner) <- id :: shared_l.(owner);
          List.iter (fun q -> ghost_l.(q) <- id :: ghost_l.(q)) others
    done
  done;
  let private_sets = Array.map Geometry.Sorted_iset.of_list private_l
  and shared_sets = Array.map Geometry.Sorted_iset.of_list shared_l
  and ghost_sets = Array.map Geometry.Sorted_iset.of_list ghost_l in
  {
    pieces;
    n_zones;
    n_points;
    zone_pts;
    private_sets;
    shared_sets;
    ghost_sets;
    all_private = Geometry.Sorted_iset.union_many private_sets;
    all_shared = Geometry.Sorted_iset.union_many shared_sets;
  }

let program cfg =
  let m = generate cfg in
  let zx, _zy = cfg.piece_zones in
  let gx, _gy = near_square m.pieces in
  let w = gx * zx in
  let b = Program.Builder.create ~name:"pennant" in
  let zones =
    Program.Builder.region b ~name:"zones"
      (Index_space.of_range m.n_zones)
      ([ fzp; fzrho; fze; fzvol; fzm ] @ Array.to_list fpt)
  in
  let points =
    Program.Builder.region b ~name:"points"
      (Index_space.of_range m.n_points)
      [ fppx; fppy; fpvx; fpvy; fpfx; fpfy; fpm ]
  in
  let piset s = Index_space.of_iset ~universe_size:m.n_points s in
  let pvs =
    Program.Builder.partition b ~name:"pvs" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true points
          [| piset m.all_private; piset m.all_shared |])
  in
  let all_private = Partition.sub pvs 0
  and all_shared = Partition.sub pvs 1 in
  let _pvt =
    Program.Builder.partition b ~name:"pvt" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true all_private
          (Array.map piset m.private_sets))
  in
  let _shr =
    Program.Builder.partition b ~name:"shr" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true all_shared
          (Array.map piset m.shared_sets))
  in
  let _ghost =
    Program.Builder.partition b ~name:"ghost" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:false all_shared
          (Array.map piset m.ghost_sets))
  in
  let _zones_p =
    Program.Builder.partition b ~name:"zones_p" (fun ~name ->
        Partition.block ~name zones ~pieces:m.pieces)
  in
  Program.Builder.space b ~name:"P" m.pieces;
  Program.Builder.scalar b ~name:"dt" 1e-3;
  let corner_sign = [| (-1., -1.); (1., -1.); (-1., 1.); (1., 1.) |] in
  let not_covered n =
    invalid_arg (Printf.sprintf "pennant: point %d not covered" n)
  in
  let calc_dt =
    Task.make ~name:"calc_dt"
      ~params:
        [
          {
            Task.pname = "zones";
            privs = [ Privilege.reads fzvol; Privilege.reads fzp ];
          };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. dt_seconds_per_zone)
      (fun accs _ ->
        let zs = accs.(0) in
        let vol = Accessor.read_column zs fzvol
        and p = Accessor.read_column zs fzp in
        let acc = ref Float.infinity in
        Accessor.iter_runs zs (fun lo hi ->
            let b = Accessor.run_base zs lo hi in
            for i = b to b + hi - lo do
              acc :=
                Float.min !acc
                  (0.05 *. sqrt (Float.abs vol.(i)) /. (1. +. Float.abs p.(i)))
            done);
        !acc)
  in
  let zone_eos =
    Task.make ~name:"zone_eos"
      ~params:
        [
          {
            Task.pname = "zones";
            privs =
              [ Privilege.writes fzp; Privilege.reads fzrho; Privilege.reads fze ];
          };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. eos_seconds_per_zone)
      (fun accs _ ->
        let zs = accs.(0) in
        let p = Accessor.write_column zs fzp
        and rho = Accessor.read_column zs fzrho
        and e = Accessor.read_column zs fze in
        Accessor.iter_runs zs (fun lo hi ->
            let b = Accessor.run_base zs lo hi in
            for i = b to b + hi - lo do
              p.(i) <- 0.4 *. rho.(i) *. e.(i)
            done);
        0.)
  in
  let point_forces =
    Task.make ~name:"point_forces"
      ~params:
        [
          {
            Task.pname = "zones";
            privs =
              Privilege.reads fzp
              :: List.map Privilege.reads (Array.to_list fpt);
          };
          { Task.pname = "pvt"; privs = [ Privilege.reduces Privilege.Sum fpfx; Privilege.reduces Privilege.Sum fpfy ] };
          { Task.pname = "shr"; privs = [ Privilege.reduces Privilege.Sum fpfx; Privilege.reduces Privilege.Sum fpfy ] };
          { Task.pname = "ghost"; privs = [ Privilege.reduces Privilege.Sum fpfx; Privilege.reduces Privilege.Sum fpfy ] };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. forces_seconds_per_zone)
      (fun accs _ ->
        let zs = accs.(0) and pvt = accs.(1) and shr = accs.(2)
        and ghost = accs.(3) in
        let zp = Accessor.read_column zs fzp in
        let zpt = Array.map (Accessor.read_column zs) fpt in
        let sum a f = Accessor.reduce_column a ~op:Privilege.Sum f in
        let fxp = sum pvt fpfx and fyp = sum pvt fpfy
        and fxs = sum shr fpfx and fys = sum shr fpfy
        and fxg = sum ghost fpfx and fyg = sum ghost fpfy in
        (* Point dispatch through whichever of pvt, shr and ghost covers
           the corner. *)
        let[@inline] deposit n fx fy =
          let k = Accessor.index pvt n in
          if k >= 0 then begin
            fxp.(k) <- fxp.(k) +. fx;
            fyp.(k) <- fyp.(k) +. fy
          end
          else
            let k = Accessor.index shr n in
            if k >= 0 then begin
              fxs.(k) <- fxs.(k) +. fx;
              fys.(k) <- fys.(k) +. fy
            end
            else
              let k = Accessor.index ghost n in
              if k >= 0 then begin
                fxg.(k) <- fxg.(k) +. fx;
                fyg.(k) <- fyg.(k) +. fy
              end
              else not_covered n
        in
        Accessor.iter_runs zs (fun lo hi ->
            let b = Accessor.run_base zs lo hi in
            for i = b to b + hi - lo do
              let p = zp.(i) in
              for k = 0 to 3 do
                let sx, sy = corner_sign.(k) in
                deposit
                  (int_of_float zpt.(k).(i))
                  (0.5 *. sx *. p) (0.5 *. sy *. p)
              done
            done);
        0.)
  in
  let move_points =
    let privs =
      [
        Privilege.writes fppx;
        Privilege.writes fppy;
        Privilege.writes fpvx;
        Privilege.writes fpvy;
        Privilege.writes fpfx;
        Privilege.writes fpfy;
        Privilege.reads fpm;
      ]
    in
    Task.make ~name:"move_points"
      ~params:[ { Task.pname = "pvt"; privs }; { Task.pname = "shr"; privs } ]
      ~nscalars:1
      ~cost:(fun sizes ->
        float_of_int (sizes.(0) + sizes.(1)) *. move_seconds_per_point)
      (fun accs sargs ->
        let dt = sargs.(0) in
        Array.iter
          (fun acc ->
            let m = Accessor.read_column acc fpm
            and cvx = Accessor.write_column acc fpvx
            and cvy = Accessor.write_column acc fpvy
            and fx = Accessor.write_column acc fpfx
            and fy = Accessor.write_column acc fpfy
            and px = Accessor.write_column acc fppx
            and py = Accessor.write_column acc fppy in
            Accessor.iter_runs acc (fun lo hi ->
                let b = Accessor.run_base acc lo hi in
                for i = b to b + hi - lo do
                  let minv = 1. /. m.(i) in
                  let vx = cvx.(i) +. (dt *. fx.(i) *. minv)
                  and vy = cvy.(i) +. (dt *. fy.(i) *. minv) in
                  cvx.(i) <- vx;
                  cvy.(i) <- vy;
                  px.(i) <- px.(i) +. (dt *. vx);
                  py.(i) <- py.(i) +. (dt *. vy);
                  fx.(i) <- 0.;
                  fy.(i) <- 0.
                done))
          [| accs.(0); accs.(1) |];
        0.)
  in
  let zone_update =
    Task.make ~name:"zone_update"
      ~params:
        [
          {
            Task.pname = "zones";
            privs =
              [
                Privilege.writes fzvol;
                Privilege.writes fzrho;
                Privilege.writes fze;
                Privilege.reads fzp;
                Privilege.reads fzm;
              ]
              @ List.map Privilege.reads (Array.to_list fpt);
          };
          { Task.pname = "pvt"; privs = [ Privilege.reads fppx; Privilege.reads fppy ] };
          { Task.pname = "shr"; privs = [ Privilege.reads fppx; Privilege.reads fppy ] };
          { Task.pname = "ghost"; privs = [ Privilege.reads fppx; Privilege.reads fppy ] };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. update_seconds_per_zone)
      (fun accs _ ->
        let zs = accs.(0) and pvt = accs.(1) and shr = accs.(2)
        and ghost = accs.(3) in
        let zp = Accessor.read_column zs fzp
        and zm = Accessor.read_column zs fzm
        and ze = Accessor.write_column zs fze
        and zvol = Accessor.write_column zs fzvol
        and zrho = Accessor.write_column zs fzrho in
        let zpt = Array.map (Accessor.read_column zs) fpt in
        let col a f = Accessor.read_column a f in
        let xp = col pvt fppx and yp = col pvt fppy
        and xs = col shr fppx and ys = col shr fppy
        and xg = col ghost fppx and yg = col ghost fppy in
        (* A corner's coordinate, from the column (of pvt, shr or ghost)
           of whichever argument covers the point. *)
        let[@inline] coord cp cs cg n =
          let k = Accessor.index pvt n in
          if k >= 0 then cp.(k)
          else
            let k = Accessor.index shr n in
            if k >= 0 then cs.(k)
            else
              let k = Accessor.index ghost n in
              if k >= 0 then cg.(k) else not_covered n
        in
        Accessor.iter_runs zs (fun lo hi ->
            let b = Accessor.run_base zs lo hi in
            for i = b to b + hi - lo do
              let n0 = int_of_float zpt.(0).(i)
              and n1 = int_of_float zpt.(1).(i)
              and n2 = int_of_float zpt.(2).(i)
              and n3 = int_of_float zpt.(3).(i) in
              let x0 = coord xp xs xg n0 and y0 = coord yp ys yg n0
              and x1 = coord xp xs xg n1 and y1 = coord yp ys yg n1
              and x2 = coord xp xs xg n2 and y2 = coord yp ys yg n2
              and x3 = coord xp xs xg n3 and y3 = coord yp ys yg n3 in
              (* Shoelace area of the quad with corners 0,1,3,2 (ccw). *)
              let vol = ref 0. in
              vol := !vol +. ((x0 *. y1) -. (x1 *. y0));
              vol := !vol +. ((x1 *. y3) -. (x3 *. y1));
              vol := !vol +. ((x3 *. y2) -. (x2 *. y3));
              vol := !vol +. ((x2 *. y0) -. (x0 *. y2));
              let vol = 0.5 *. Float.abs !vol in
              let old_vol = zvol.(i) in
              let mass = zm.(i) in
              ze.(i) <- ze.(i) -. (zp.(i) *. (vol -. old_vol) /. mass);
              zvol.(i) <- vol;
              zrho.(i) <- mass /. Float.max vol 1e-12
            done);
        0.)
  in
  let init_zones =
    Task.make ~name:"init_zones"
      ~params:
        [
          {
            Task.pname = "zones";
            privs =
              [
                Privilege.writes fzp;
                Privilege.writes fzrho;
                Privilege.writes fze;
                Privilege.writes fzvol;
                Privilege.writes fzm;
              ]
              @ List.map Privilege.writes (Array.to_list fpt);
          };
        ]
      (fun accs _ ->
        let zs = accs.(0) in
        let rho = Accessor.write_column zs fzrho
        and e = Accessor.write_column zs fze
        and p = Accessor.write_column zs fzp
        and vol = Accessor.write_column zs fzvol
        and zm = Accessor.write_column zs fzm in
        let pt = Array.map (Accessor.write_column zs) fpt in
        Accessor.iter_runs zs (fun lo hi ->
            let b = Accessor.run_base zs lo hi in
            for z = lo to hi do
              let i = b + z - lo in
              rho.(i) <- 1.;
              (* A central "Sedov-like" energy concentration. *)
              e.(i) <- (if z = m.n_zones / 2 then 10. else 1.);
              p.(i) <- 0.;
              vol.(i) <- 1.;
              zm.(i) <- 1.;
              for k = 0 to 3 do
                pt.(k).(i) <- float_of_int m.zone_pts.(z).(k)
              done
            done);
        0.)
  in
  let init_points =
    Task.make ~name:"init_points"
      ~params:
        [
          {
            Task.pname = "points";
            privs =
              [
                Privilege.writes fppx;
                Privilege.writes fppy;
                Privilege.writes fpvx;
                Privilege.writes fpvy;
                Privilege.writes fpfx;
                Privilege.writes fpfy;
                Privilege.writes fpm;
              ];
          };
        ]
      (fun accs _ ->
        let t = accs.(0) in
        let px = Accessor.write_column t fppx
        and py = Accessor.write_column t fppy
        and vx = Accessor.write_column t fpvx
        and vy = Accessor.write_column t fpvy
        and fx = Accessor.write_column t fpfx
        and fy = Accessor.write_column t fpfy
        and pm = Accessor.write_column t fpm in
        Accessor.iter_runs t (fun lo hi ->
            let b = Accessor.run_base t lo hi in
            for p = lo to hi do
              let i = b + p - lo in
              px.(i) <- float_of_int (p mod (w + 1));
              py.(i) <- float_of_int (p / (w + 1));
              vx.(i) <- 0.;
              vy.(i) <- 0.;
              fx.(i) <- 0.;
              fy.(i) <- 0.;
              pm.(i) <- 1.
            done);
        0.)
  in
  List.iter (Program.Builder.task b)
    [ calc_dt; zone_eos; point_forces; move_points; zone_update; init_zones;
      init_points ];
  Program.Builder.body b
    [
      Syn.run (Syn.call "init_zones" [ Syn.whole "zones" ]);
      Syn.run (Syn.call "init_points" [ Syn.whole "points" ]);
      Syn.for_time "t" cfg.timesteps
        [
          Syn.forall_reduce "P"
            (Syn.call "calc_dt" [ Syn.part "zones_p" ])
            ~into:"dt" Privilege.Min;
          Syn.forall "P" (Syn.call "zone_eos" [ Syn.part "zones_p" ]);
          Syn.forall "P"
            (Syn.call "point_forces"
               [ Syn.part "zones_p"; Syn.part "pvt"; Syn.part "shr"; Syn.part "ghost" ]);
          Syn.forall "P"
            (Syn.call "move_points"
               ~scalars:[ Syn.sv "dt" ]
               [ Syn.part "pvt"; Syn.part "shr" ]);
          Syn.forall "P"
            (Syn.call "zone_update"
               [ Syn.part "zones_p"; Syn.part "pvt"; Syn.part "shr"; Syn.part "ghost" ]);
        ];
    ];
  Program.Builder.finish b

let total_momentum ctx prog =
  let points = Program.find_region prog "points" in
  let inst = Interp.Run.region_instance ctx points in
  Index_space.fold_ids
    (fun (mx, my) id ->
      let m = Physical.get inst fpm id in
      ( mx +. (m *. Physical.get inst fpvx id),
        my +. (m *. Physical.get inst fpvy id) ))
    (0., 0.) points.Region.ispace

module Reference = struct
  type variant = Mpi | Mpi_openmp

  let per_step machine cfg variant =
    let zones_per_node = cfg.pieces_per_node * zones_per_piece cfg in
    let points_per_node = zones_per_node in
    let core_seconds =
      (float_of_int zones_per_node
      *. (eos_seconds_per_zone +. forces_seconds_per_zone
         +. update_seconds_per_zone +. dt_seconds_per_zone))
      +. (float_of_int points_per_node *. move_seconds_per_point)
    in
    let base = core_seconds /. float_of_int machine.Realm.Machine.cores_per_node in
    let nodes = machine.Realm.Machine.nodes in
    (* Per-step blocking dt allreduce: heavy-tailed noise amplified with
       rank count. Coefficients calibrated to the paper's 82% (MPI) and
       64% (MPI+OpenMP) parallel efficiencies at 1024 nodes; MPI+OpenMP
       overlaps communication worse (§5.3). *)
    match variant with
    | Mpi ->
        let ranks = nodes * machine.Realm.Machine.cores_per_node in
        let steps_log = Float.max 0. (Float.log2 (float_of_int ranks) -. Float.log2 12.) in
        base *. (1. +. (0.022 *. steps_log))
    | Mpi_openmp ->
        let steps_log = Float.max 0. (Float.log2 (float_of_int (max 1 nodes))) in
        base *. (1. +. (0.056 *. steps_log))
end
