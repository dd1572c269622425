open Geometry
open Regions
open Ir
module Syn = Program.Syntax

type config = {
  nodes : int;
  pieces_per_node : int;
  cnodes_per_piece : int;
  wires_per_piece : int;
  pct_cross : float;
  timesteps : int;
  seed : int;
}

(* Per-element kernel times calibrated to the paper's ~80 x 10^3 circuit
   nodes/s/node (Fig. 9): 25000 nodes/node in 10 pieces across the 11
   compute cores gives a ~0.31 s step. *)
let currents_seconds_per_wire = 18e-6
let charge_seconds_per_wire = 12e-6
let update_seconds_per_cnode = 5e-6
let dt = 1e-2

let default ~nodes =
  {
    nodes;
    pieces_per_node = 10;
    cnodes_per_piece = 2_500;
    wires_per_piece = 10_000;
    pct_cross = 0.05;
    timesteps = 10;
    seed = 42;
  }

let sim_config ~nodes =
  { (default ~nodes) with cnodes_per_piece = 100; wires_per_piece = 400 }

let test_config ~nodes =
  {
    nodes;
    pieces_per_node = 2;
    cnodes_per_piece = 16;
    wires_per_piece = 64;
    pct_cross = 0.2;
    timesteps = 3;
    seed = 7;
  }

let scale cfg =
  let full = default ~nodes:cfg.nodes in
  let m =
    float_of_int full.cnodes_per_piece /. float_of_int cfg.cnodes_per_piece
  in
  Legion.Scale.make ~compute:m ~copy:m

let fvolt = Field.make "voltage"
let fcharge = Field.make "charge"
let fcap = Field.make "capacitance"
let fcur = Field.make "current"
let fres = Field.make "resistance"
let fnin = Field.make "in_node"
let fnout = Field.make "out_node"

(* The generated graph: endpoints per wire and the private / shared-owned /
   ghost node sets per piece. *)
type graph = {
  pieces : int;
  n_cnodes : int;
  n_wires : int;
  win : int array; (* wire -> in node *)
  wout : int array; (* wire -> out node *)
  private_sets : Sorted_iset.t array;
  shared_sets : Sorted_iset.t array;
  ghost_sets : Sorted_iset.t array;
  all_private : Sorted_iset.t;
  all_shared : Sorted_iset.t;
}

let generate cfg =
  let pieces = cfg.nodes * cfg.pieces_per_node in
  let npp = cfg.cnodes_per_piece and wpp = cfg.wires_per_piece in
  let n_cnodes = pieces * npp and n_wires = pieces * wpp in
  let st = Random.State.make [| 0xC19C; cfg.seed; pieces; npp; wpp |] in
  let win = Array.make n_wires 0 and wout = Array.make n_wires 0 in
  let piece_of_cnode n = n / npp in
  for w = 0 to n_wires - 1 do
    let p = w / wpp in
    let local () = (p * npp) + Random.State.int st npp in
    win.(w) <- local ();
    wout.(w) <-
      (if pieces > 1 && Random.State.float st 1.0 < cfg.pct_cross then begin
         (* Ring locality: remote endpoints live in an adjacent piece, so
            every piece talks to O(1) neighbours (§3.3's sparsity). *)
         let q =
           if Random.State.bool st then (p + 1) mod pieces
           else (p + pieces - 1) mod pieces
         in
         (q * npp) + Random.State.int st npp
       end
       else local ())
  done;
  let shared = Array.make n_cnodes false in
  let ghosts = Array.make pieces [] in
  for w = 0 to n_wires - 1 do
    let p = w / wpp in
    List.iter
      (fun n ->
        if piece_of_cnode n <> p then begin
          shared.(n) <- true;
          ghosts.(p) <- n :: ghosts.(p)
        end)
      [ win.(w); wout.(w) ]
  done;
  let private_sets =
    Array.init pieces (fun p ->
        Sorted_iset.of_list
          (List.filter
             (fun n -> not shared.(n))
             (List.init npp (fun k -> (p * npp) + k))))
  and shared_sets =
    Array.init pieces (fun p ->
        Sorted_iset.of_list
          (List.filter
             (fun n -> shared.(n))
             (List.init npp (fun k -> (p * npp) + k))))
  and ghost_sets = Array.map Sorted_iset.of_list ghosts in
  let all_private = Sorted_iset.union_many private_sets
  and all_shared = Sorted_iset.union_many shared_sets in
  {
    pieces;
    n_cnodes;
    n_wires;
    win;
    wout;
    private_sets;
    shared_sets;
    ghost_sets;
    all_private;
    all_shared;
  }

let program cfg =
  let g = generate cfg in
  let b = Program.Builder.create ~name:"circuit" in
  let rn =
    Program.Builder.region b ~name:"cnodes"
      (Index_space.of_range g.n_cnodes)
      [ fvolt; fcharge; fcap ]
  in
  let rw =
    Program.Builder.region b ~name:"wires"
      (Index_space.of_range g.n_wires)
      [ fcur; fres; fnin; fnout ]
  in
  let iset s = Index_space.of_iset ~universe_size:g.n_cnodes s in
  (* Hierarchical region tree (§4.5): private vs shared at the top. *)
  let pvs =
    Program.Builder.partition b ~name:"pvs" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true rn
          [| iset g.all_private; iset g.all_shared |])
  in
  let all_private = Partition.sub pvs 0
  and all_shared = Partition.sub pvs 1 in
  let _pvt =
    Program.Builder.partition b ~name:"pvt" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true all_private
          (Array.map iset g.private_sets))
  in
  let _shr =
    Program.Builder.partition b ~name:"shr" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:true all_shared
          (Array.map iset g.shared_sets))
  in
  let _ghost =
    Program.Builder.partition b ~name:"ghost" (fun ~name ->
        Partition.of_explicit ~name ~disjoint:false all_shared
          (Array.map iset g.ghost_sets))
  in
  let _wires_p =
    Program.Builder.partition b ~name:"wires_p" (fun ~name ->
        Partition.block ~name rw ~pieces:g.pieces)
  in
  Program.Builder.space b ~name:"P" g.pieces;
  let not_covered n =
    invalid_arg (Printf.sprintf "circuit: node %d not covered" n)
  in
  let calc_new_currents =
    Task.make ~name:"calc_new_currents"
      ~params:
        [
          {
            Task.pname = "wires";
            privs =
              [
                Privilege.writes fcur;
                Privilege.reads fres;
                Privilege.reads fnin;
                Privilege.reads fnout;
              ];
          };
          { Task.pname = "pvt"; privs = [ Privilege.reads fvolt ] };
          { Task.pname = "shr"; privs = [ Privilege.reads fvolt ] };
          { Task.pname = "ghost"; privs = [ Privilege.reads fvolt ] };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. currents_seconds_per_wire)
      (fun accs _ ->
        let w = accs.(0) and pvt = accs.(1) and shr = accs.(2)
        and ghost = accs.(3) in
        let cnin = Accessor.read_column w fnin
        and cnout = Accessor.read_column w fnout
        and cres = Accessor.read_column w fres
        and ccur = Accessor.write_column w fcur
        and vp = Accessor.read_column pvt fvolt
        and vs = Accessor.read_column shr fvolt
        and vg = Accessor.read_column ghost fvolt in
        (* Endpoint dispatch through whichever node argument covers it. *)
        let[@inline] voltage n =
          let k = Accessor.index pvt n in
          if k >= 0 then vp.(k)
          else
            let k = Accessor.index shr n in
            if k >= 0 then vs.(k)
            else
              let k = Accessor.index ghost n in
              if k >= 0 then vg.(k) else not_covered n
        in
        Accessor.iter_runs w (fun lo hi ->
            let b = Accessor.run_base w lo hi in
            for i = b to b + hi - lo do
              let vin = voltage (int_of_float cnin.(i))
              and vout = voltage (int_of_float cnout.(i)) in
              ccur.(i) <- (vin -. vout) /. cres.(i)
            done);
        0.)
  in
  let distribute_charge =
    Task.make ~name:"distribute_charge"
      ~params:
        [
          {
            Task.pname = "wires";
            privs =
              [ Privilege.reads fcur; Privilege.reads fnin; Privilege.reads fnout ];
          };
          { Task.pname = "pvt"; privs = [ Privilege.reduces Privilege.Sum fcharge ] };
          { Task.pname = "shr"; privs = [ Privilege.reduces Privilege.Sum fcharge ] };
          { Task.pname = "ghost"; privs = [ Privilege.reduces Privilege.Sum fcharge ] };
        ]
      ~cost:(fun sizes -> float_of_int sizes.(0) *. charge_seconds_per_wire)
      (fun accs _ ->
        let w = accs.(0) and pvt = accs.(1) and shr = accs.(2)
        and ghost = accs.(3) in
        let cnin = Accessor.read_column w fnin
        and cnout = Accessor.read_column w fnout
        and ccur = Accessor.read_column w fcur in
        let sum a = Accessor.reduce_column a ~op:Privilege.Sum fcharge in
        let qp = sum pvt and qs = sum shr and qg = sum ghost in
        let[@inline] deposit n dq =
          let k = Accessor.index pvt n in
          if k >= 0 then qp.(k) <- qp.(k) +. dq
          else
            let k = Accessor.index shr n in
            if k >= 0 then qs.(k) <- qs.(k) +. dq
            else
              let k = Accessor.index ghost n in
              if k >= 0 then qg.(k) <- qg.(k) +. dq else not_covered n
        in
        Accessor.iter_runs w (fun lo hi ->
            let b = Accessor.run_base w lo hi in
            for i = b to b + hi - lo do
              let dq = dt *. ccur.(i) in
              deposit (int_of_float cnin.(i)) (-.dq);
              deposit (int_of_float cnout.(i)) dq
            done);
        0.)
  in
  let update_voltage =
    Task.make ~name:"update_voltage"
      ~params:
        [
          {
            Task.pname = "pvt";
            privs =
              [ Privilege.writes fvolt; Privilege.writes fcharge; Privilege.reads fcap ];
          };
          {
            Task.pname = "shr";
            privs =
              [ Privilege.writes fvolt; Privilege.writes fcharge; Privilege.reads fcap ];
          };
        ]
      ~cost:(fun sizes ->
        float_of_int (sizes.(0) + sizes.(1)) *. update_seconds_per_cnode)
      (fun accs _ ->
        Array.iter
          (fun acc ->
            let volt = Accessor.write_column acc fvolt
            and q = Accessor.write_column acc fcharge
            and cap = Accessor.read_column acc fcap in
            Accessor.iter_runs acc (fun lo hi ->
                let b = Accessor.run_base acc lo hi in
                for i = b to b + hi - lo do
                  volt.(i) <- volt.(i) +. (q.(i) /. cap.(i));
                  q.(i) <- 0.
                done))
          accs;
        0.)
  in
  let init_nodes =
    Task.make ~name:"init_nodes"
      ~params:
        [
          {
            Task.pname = "cnodes";
            privs =
              [ Privilege.writes fvolt; Privilege.writes fcharge; Privilege.writes fcap ];
          };
        ]
      (fun accs _ ->
        let t = accs.(0) in
        let volt = Accessor.write_column t fvolt
        and q = Accessor.write_column t fcharge
        and cap = Accessor.write_column t fcap in
        Accessor.iter_runs t (fun lo hi ->
            let b = Accessor.run_base t lo hi in
            for id = lo to hi do
              let i = b + id - lo in
              volt.(i) <- float_of_int ((id * 37) mod 101) /. 101.;
              q.(i) <- 0.;
              cap.(i) <- 1. +. (float_of_int (id mod 7) *. 0.1)
            done);
        0.)
  in
  let init_wires =
    Task.make ~name:"init_wires"
      ~params:
        [
          {
            Task.pname = "wires";
            privs =
              [
                Privilege.writes fcur;
                Privilege.writes fres;
                Privilege.writes fnin;
                Privilege.writes fnout;
              ];
          };
        ]
      (fun accs _ ->
        let t = accs.(0) in
        let cur = Accessor.write_column t fcur
        and res = Accessor.write_column t fres
        and nin = Accessor.write_column t fnin
        and nout = Accessor.write_column t fnout in
        Accessor.iter_runs t (fun lo hi ->
            let b = Accessor.run_base t lo hi in
            for id = lo to hi do
              let i = b + id - lo in
              cur.(i) <- 0.;
              res.(i) <- 1. +. (float_of_int (id mod 13) *. 0.05);
              nin.(i) <- float_of_int g.win.(id);
              nout.(i) <- float_of_int g.wout.(id)
            done);
        0.)
  in
  Program.Builder.task b calc_new_currents;
  Program.Builder.task b distribute_charge;
  Program.Builder.task b update_voltage;
  Program.Builder.task b init_nodes;
  Program.Builder.task b init_wires;
  Program.Builder.body b
    [
      Syn.run (Syn.call "init_nodes" [ Syn.whole "cnodes" ]);
      Syn.run (Syn.call "init_wires" [ Syn.whole "wires" ]);
      Syn.for_time "t" cfg.timesteps
        [
          Syn.forall "P"
            (Syn.call "calc_new_currents"
               [ Syn.part "wires_p"; Syn.part "pvt"; Syn.part "shr"; Syn.part "ghost" ]);
          Syn.forall "P"
            (Syn.call "distribute_charge"
               [ Syn.part "wires_p"; Syn.part "pvt"; Syn.part "shr"; Syn.part "ghost" ]);
          Syn.forall "P"
            (Syn.call "update_voltage" [ Syn.part "pvt"; Syn.part "shr" ]);
        ];
    ];
  Program.Builder.finish b

let total_node_charge ctx prog =
  let rn = Program.find_region prog "cnodes" in
  let inst = Interp.Run.region_instance ctx rn in
  Index_space.fold_ids
    (fun acc id ->
      acc
      +. (Physical.get inst fcap id *. Physical.get inst fvolt id)
      +. Physical.get inst fcharge id)
    0. rn.Region.ispace

module Reference = struct
  (* An idealised hand-written SPMD equivalent: perfect core usage plus a
     ghost-voltage exchange per step. The paper has no reference code for
     circuit (Fig. 9 compares Regent with and without CR only). *)
  let per_step machine cfg =
    let wires_per_node = cfg.pieces_per_node * cfg.wires_per_piece in
    let cnodes_per_node = cfg.pieces_per_node * cfg.cnodes_per_piece in
    let core_seconds =
      (float_of_int wires_per_node
      *. (currents_seconds_per_wire +. charge_seconds_per_wire))
      +. (float_of_int cnodes_per_node *. update_seconds_per_cnode)
    in
    let ghost_elems =
      float_of_int wires_per_node *. cfg.pct_cross
    in
    let halo_bytes = ghost_elems *. machine.Realm.Machine.bytes_per_element in
    let halo =
      if machine.Realm.Machine.nodes = 1 then 0.
      else
        2.
        *. (machine.Realm.Machine.network_latency
           +. (halo_bytes /. machine.Realm.Machine.network_bandwidth))
    in
    (core_seconds /. float_of_int machine.Realm.Machine.cores_per_node) +. halo
end
