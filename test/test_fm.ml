(* Fabric-manager soft-state suite: pod sharding, the replication-log
   failover path, the pending-ARP lifecycle (dedupe, drops on switch
   death and FM restart), the generation-stamped edge ARP caches, and
   incremental multicast/broadcast tree maintenance held to a
   from-scratch oracle. *)

module F = Portland.Fabric
module FM = Portland.Fabric_manager
module SA = Portland.Switch_agent
module HA = Portland.Host_agent
module Time = Eventsim.Time

let udp seq = Netcore.Ipv4_pkt.Udp (Netcore.Udp.make ~flow_id:1 ~app_seq:seq ~payload_len:64 ())

(* ---------------- direct FM fixtures (no fabric) ---------------- *)

let mk_binding i =
  { Portland.Msg.ip = Netcore.Ipv4_addr.of_int (0x0A000000 lor i);
    amac = Netcore.Mac_addr.of_int (0x020000000000 lor i);
    pmac = Portland.Pmac.make ~pod:(i mod 4) ~position:(i mod 2) ~port:(i mod 2) ~vmid:1;
    edge_switch = i mod 16 }

(* a bare FM on a bare control network, with scripted "switches": the
   unit-level harness for the pending-ARP lifecycle *)
let mk_fm ?(fm_shards = 1) () =
  let engine = Eventsim.Engine.create () in
  let ctrl = Portland.Ctrl.create engine ~latency:(Time.us 50) in
  let spec = Topology.Fattree.spec ~k:4 in
  let fm = FM.create ~fm_shards engine Portland.Config.default ctrl ~spec in
  (engine, ctrl, fm)

let query ctrl ~from_sw ~port target_ip =
  Portland.Ctrl.send_to_fm ctrl ~from:from_sw
    (Portland.Msg.Arp_query
       { switch_id = from_sw;
         requester_ip = Netcore.Ipv4_addr.of_octets 10 0 0 2;
         requester_pmac = Portland.Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:1;
         requester_port = port;
         target_ip })

let count_answers ctrl sw counter =
  Portland.Ctrl.register_switch ctrl sw (function
    | Portland.Msg.Arp_answer _ -> incr counter
    | _ -> ())

(* ---------------- pending-ARP lifecycle ---------------- *)

let test_pending_dedupe () =
  List.iter
    (fun fm_shards ->
      let engine, ctrl, fm = mk_fm ~fm_shards () in
      let answers = ref 0 in
      count_answers ctrl 1 answers;
      let target = Netcore.Ipv4_addr.of_octets 10 2 0 5 in
      (* a host retrying an unresolved target re-misses with identical
         (switch, requester IP, port): one pending entry, one reply *)
      for _ = 1 to 3 do query ctrl ~from_sw:1 ~port:0 target done;
      (* a second requester port on the same switch is a distinct waiter *)
      query ctrl ~from_sw:1 ~port:1 target;
      Eventsim.Engine.run engine;
      Testutil.check_int "one pending target IP" 1 (FM.pending_count fm);
      Portland.Ctrl.send_to_fm ctrl ~from:9
        (Portland.Msg.Host_announce { (mk_binding 5) with Portland.Msg.ip = target });
      Eventsim.Engine.run engine;
      Testutil.check_int "one answer per distinct waiter" 2 !answers;
      Testutil.check_int "pending cleared" 0 (FM.pending_count fm);
      Testutil.check_int "nothing dropped" 0 (FM.counters fm).FM.pending_dropped)
    [ 1; 4 ]

let test_pending_dropped_on_switch_death () =
  let engine, ctrl, fm = mk_fm ~fm_shards:2 () in
  let alive = ref 0 and dead = ref 0 in
  count_answers ctrl 1 alive;
  count_answers ctrl 2 dead;
  let target = Netcore.Ipv4_addr.of_octets 10 3 0 5 in
  query ctrl ~from_sw:1 ~port:0 target;
  query ctrl ~from_sw:2 ~port:0 target;
  Eventsim.Engine.run engine;
  Testutil.check_int "both switches waiting" 1 (FM.pending_count fm);
  (* switch 2 dies with the resolution in flight: its waiter must go,
     switch 1's must survive *)
  Portland.Ctrl.unregister_switch ctrl 2;
  Testutil.check_int "dead switch's waiter dropped" 1 (FM.counters fm).FM.pending_dropped;
  Testutil.check_int "live waiter survives" 1 (FM.pending_count fm);
  Portland.Ctrl.send_to_fm ctrl ~from:9
    (Portland.Msg.Host_announce { (mk_binding 7) with Portland.Msg.ip = target });
  Eventsim.Engine.run engine;
  Testutil.check_int "live switch answered" 1 !alive;
  Testutil.check_int "dead switch never answered" 0 !dead

(* ---------------- resolve / resolve_batch agreement ---------------- *)

let test_resolve_batch_matches_resolve () =
  List.iter
    (fun fm_shards ->
      let _, _, fm = mk_fm ~fm_shards () in
      for i = 0 to 511 do
        FM.insert_binding_for_test fm (mk_binding i)
      done;
      (* present, absent and repeated IPs, spread across every shard *)
      let ips =
        Array.init 600 (fun i ->
            Netcore.Ipv4_addr.of_int (0x0A000000 lor (i * 7 mod 700)))
      in
      let batched = FM.resolve_batch fm ips in
      Array.iteri
        (fun i ip ->
          if batched.(i) <> FM.resolve fm ip then
            Alcotest.failf "resolve_batch disagrees with resolve at %d (fm_shards=%d)" i
              fm_shards)
        ips)
    [ 1; 4 ]

(* ---------------- shard integrity & failover ---------------- *)

let test_shard_integrity_converged () =
  (* fm_shards = 5 > num_pods leaves one pod shard empty, which must
     also be consistent *)
  List.iter
    (fun fm_shards ->
      let fab =
        F.create (F.Config.fattree ~obs:Obs.null ~seed:42 ~fm_shards ~k:4 ())
      in
      Alcotest.(check bool) "converged" true (F.await_convergence fab);
      (match FM.shard_integrity (F.fabric_manager fab) with
       | [] -> ()
       | v :: _ -> Alcotest.failf "shard integrity (fm_shards=%d): %s" fm_shards v))
    [ 1; 2; 5 ]

let test_failover_shard () =
  let fab = F.create (F.Config.fattree ~obs:Obs.null ~seed:11 ~fm_shards:3 ~k:4 ()) in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let fm = F.fabric_manager fab in
  for pod = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "failover of pod %d verified" pod)
      true
      (F.failover_fm_shard fab ~pod)
  done;
  Testutil.check_int "four failovers counted" 4 (FM.counters fm).FM.shard_failovers;
  Alcotest.(check (list string)) "integrity after failovers" [] (FM.shard_integrity fm);
  Alcotest.check_raises "pod out of range"
    (Invalid_argument "Fabric.failover_fm_shard: pod out of range") (fun () ->
      ignore (F.failover_fm_shard fab ~pod:7));
  F.run_for fab (Time.ms 100);
  Testutil.assert_verified ~msg:"dataplane after shard failovers" fab;
  Testutil.assert_all_pairs_deliver ~msg:"delivery after shard failovers" fab

(* A rebooted edge switch gets its host bindings back by replaying the
   replication log of the shard that owns its hosts' IPs — and only that
   one. Foreign pod shards and the core shard must never be read: their
   replay counters stay put. The owning shard is keyed by the hosts'
   {e IP} pods, not the FM's discovery-order pod labels, so the expected
   index is computed from a bound IP. *)
let test_resync_reads_only_owning_shard () =
  let fm_shards = 4 in
  let fab = F.create (F.Config.fattree ~obs:Obs.null ~seed:21 ~fm_shards ~k:4 ()) in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let fm = F.fabric_manager fab in
  let h = F.host fab ~pod:2 ~edge:0 ~slot:0 in
  let b =
    match FM.lookup_binding fm (HA.ip h) with
    | Some b -> b
    | None -> Alcotest.fail "host unbound"
  in
  let owning =
    ((Netcore.Ipv4_addr.to_int b.Portland.Msg.ip lsr 16) land 0xff) mod fm_shards
  in
  let before = FM.shard_log_replays fm in
  F.fail_switch fab b.Portland.Msg.edge_switch;
  F.run_for fab (Time.ms 300);
  F.recover_switch fab b.Portland.Msg.edge_switch;
  Alcotest.(check bool) "reconverged after reboot" true (F.await_convergence fab);
  let after = FM.shard_log_replays fm in
  Testutil.check_int "replay counters cover pod shards + core shard"
    (fm_shards + 1) (Array.length after);
  Alcotest.(check bool) "owning shard's log replayed" true (after.(owning) > before.(owning));
  Array.iteri
    (fun i n ->
      if i <> owning then
        Testutil.check_int (Printf.sprintf "shard %d log untouched" i) before.(i) n)
    after;
  (* the replayed bindings are live: the rebooted edge serves its hosts *)
  Testutil.assert_verified ~msg:"dataplane after shard-scoped resync" fab

(* ---------------- FM restart racing an in-flight ARP miss ---------------- *)

(* the satellite-4 race: a host's first ARP query is on the wire when the
   FM cold-restarts. The fresh FM has no bindings, so the query misses
   and parks; resync re-announces the target, the pending entry is
   answered, and the host's retry/backoff never gives up. Must hold on
   the classic and the sharded engine, monolithic and sharded FM. *)
let fm_restart_race ~domains ~fm_shards () =
  let fab =
    F.create (F.Config.fattree ~obs:Obs.null ~seed:7 ~domains ~fm_shards ~k:4 ())
  in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let src = F.host fab ~pod:0 ~edge:0 ~slot:0 in
  let dst = F.host fab ~pod:3 ~edge:0 ~slot:0 in
  let got = ref 0 in
  HA.set_rx dst (fun _ -> incr got);
  HA.send_ip src ~dst:(HA.ip dst) (udp 0);
  (* the datagram is queued on the resolution; restart before the query
     can land *)
  F.restart_fabric_manager fab;
  F.run_for fab (Time.sec 2);
  Testutil.check_int "datagram delivered after resync" 1 !got;
  Testutil.check_int "resolution never abandoned" 0 (HA.counters src).HA.arp_abandoned;
  (* no stale reply: what src resolved is the FM's current truth *)
  (match FM.lookup_binding (F.fabric_manager fab) (HA.ip dst) with
   | None -> Alcotest.fail "dst missing from the restarted FM"
   | Some b ->
     Alcotest.(check bool) "resolved MAC is the live PMAC" true
       (HA.arp_lookup src (HA.ip dst) = Some (Portland.Pmac.to_mac b.Portland.Msg.pmac)));
  Testutil.assert_verified ~msg:"dataplane after the race" fab

let test_fm_restart_races_arp_miss () = fm_restart_race ~domains:0 ~fm_shards:1 ()
let test_fm_restart_races_arp_miss_sharded_fm () = fm_restart_race ~domains:0 ~fm_shards:4 ()
let test_fm_restart_races_arp_miss_sharded_engine () =
  fm_restart_race ~domains:2 ~fm_shards:4 ()

(* ---------------- generation-stamped edge ARP caches ---------------- *)

let test_arp_cache_generation_migration () =
  let fab =
    F.create
      (F.Config.fattree ~obs:Obs.null ~seed:5 ~spare_slots:[ (1, 0, 0) ] ~fm_shards:2
         ~k:4 ())
  in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let fm = F.fabric_manager fab in
  let a = F.host fab ~pod:0 ~edge:0 ~slot:0 in
  let a2 = F.host fab ~pod:0 ~edge:0 ~slot:1 in
  let v = F.host fab ~pod:3 ~edge:0 ~slot:0 in
  let v_ip = HA.ip v in
  let edge =
    match FM.lookup_binding fm (HA.ip a) with
    | Some b -> F.agent fab b.Portland.Msg.edge_switch
    | None -> Alcotest.fail "host A unbound"
  in
  (* first resolution: A's edge caches the answer at generation 0 *)
  HA.send_ip a ~dst:v_ip (udp 0);
  F.run_for fab (Time.ms 100);
  Alcotest.(check bool) "cached at gen 0" true
    (List.exists (fun (ip, _, gen) -> ip = v_ip && gen = 0) (SA.arp_cache_entries edge));
  (* the VM migrates: the generation bump makes that entry stale *)
  F.migrate fab ~vm:v ~to_:(1, 0, 0) ~downtime:(Time.ms 50) ();
  F.run_for fab (Time.ms 500);
  Testutil.check_int "edge saw the new generation" 1 (SA.arp_gen_seen edge);
  Alcotest.(check bool) "stale entry no longer served" true
    (SA.arp_cache_entries edge = []);
  (* a fresh resolution from the same edge must re-resolve, not serve the
     pre-migration PMAC *)
  let got = ref 0 in
  HA.set_rx v (fun _ -> incr got);
  HA.send_ip a2 ~dst:v_ip (udp 1);
  F.run_for fab (Time.ms 200);
  Testutil.check_int "delivered to the migrated VM" 1 !got;
  (match FM.lookup_binding fm v_ip with
   | None -> Alcotest.fail "migrated VM unbound"
   | Some b ->
     Alcotest.(check bool) "cache now holds the post-migration PMAC at gen 1" true
       (List.exists
          (fun (ip, pmac, gen) ->
            ip = v_ip && Portland.Pmac.equal pmac b.Portland.Msg.pmac && gen = 1)
          (SA.arp_cache_entries edge)));
  (* and the refreshed entry serves the next request locally *)
  let hits0 = (SA.counters edge).SA.arp_cache_hits in
  HA.flush_arp_cache a2;
  HA.send_ip a2 ~dst:v_ip (udp 2);
  F.run_for fab (Time.ms 200);
  Testutil.check_int "second datagram delivered" 2 !got;
  Alcotest.(check bool) "served from the edge cache" true
    ((SA.counters edge).SA.arp_cache_hits > hits0);
  Testutil.assert_verified ~msg:"dataplane after migration" fab

let test_arp_cache_wiped_on_reboot () =
  let fab = F.create (F.Config.fattree ~obs:Obs.null ~seed:3 ~k:4 ()) in
  Alcotest.(check bool) "converged" true (F.await_convergence fab);
  let a = F.host fab ~pod:0 ~edge:0 ~slot:0 in
  let v = F.host fab ~pod:3 ~edge:0 ~slot:0 in
  let edge =
    match FM.lookup_binding (F.fabric_manager fab) (HA.ip a) with
    | Some b -> b.Portland.Msg.edge_switch
    | None -> Alcotest.fail "host A unbound"
  in
  HA.send_ip a ~dst:(HA.ip v) (udp 0);
  F.run_for fab (Time.ms 100);
  Alcotest.(check bool) "cache populated" true
    (SA.arp_cache_entries (F.agent fab edge) <> []);
  F.fail_switch fab edge;
  F.recover_switch fab edge;
  Alcotest.(check bool) "cold reboot wipes the cache" true
    (SA.arp_cache_entries (F.agent fab edge) = []);
  Testutil.check_int "generation floor reset" 0 (SA.arp_gen_seen (F.agent fab edge));
  F.run_for fab (Time.ms 500);
  Testutil.assert_verified ~msg:"dataplane after reboot" fab

(* ---------------- differential tree oracle ---------------- *)

module MR = Topology.Multirooted
module Msg = Portland.Msg
module Coords = Portland.Coords
module Fault = Portland.Fault
module Ldp = Netcore.Ldp_msg
module Ip = Netcore.Ipv4_addr

(* The reference tree computation, from scratch over the FM's published
   switch views: the transit map rebuilt by scanning every switch, cores
   sorted and edges collected afresh on every call, every recompute run.
   The FM's incremental bookkeeping must agree with it after every
   message. *)
module Oracle = struct
  let int_compare (a : int) b = compare a b
  let by_switch_id (a, _) (b, _) = int_compare a b

  let port_to (v : FM.switch_view) nbr_id =
    List.find_map (fun (port, nbr, _) -> if nbr = nbr_id then Some port else None) v.FM.v_neighbors

  (* An entry with two candidate aggs (two pods granted one label, both
     meeting the core) goes to the lowest switch id, as in the FM. *)
  let build_transit views by_id =
    let transit = Hashtbl.create 64 in
    let offer key (agg : FM.switch_view) =
      match Hashtbl.find_opt transit key with
      | Some (held : FM.switch_view) when held.FM.v_id <= agg.FM.v_id -> ()
      | Some _ | None -> Hashtbl.replace transit key agg
    in
    List.iter
      (fun (v : FM.switch_view) ->
        match v.FM.v_coords with
        | Some (Coords.Agg a) ->
          List.iter
            (fun (_, nbr, nl) -> if nl = Some Ldp.Core then offer (nbr, a.pod) v)
            v.FM.v_neighbors
        | Some (Coords.Core _) ->
          List.iter
            (fun (_, nbr, nl) ->
              if nl = Some Ldp.Aggregation then
                match Hashtbl.find_opt by_id nbr with
                | Some ({ FM.v_coords = Some (Coords.Agg a); _ } as agg) ->
                  offer (v.FM.v_id, a.pod) agg
                | _ -> ())
            v.FM.v_neighbors
        | _ -> ())
      views;
    transit

  let transit_entries transit =
    Hashtbl.fold (fun (core, pod) (agg : FM.switch_view) acc -> (core, pod, agg.FM.v_id) :: acc)
      transit []
    |> List.sort compare

  let coords_of by_id id =
    match Hashtbl.find_opt by_id id with Some v -> v.FM.v_coords | None -> None

  let translates ~flat by_id a b =
    match (coords_of by_id a, coords_of by_id b) with
    | Some (Coords.Edge e), Some (Coords.Agg g) | Some (Coords.Agg g), Some (Coords.Edge e) ->
      e.pod = g.pod
    | Some (Coords.Agg _), Some (Coords.Core _) | Some (Coords.Core _), Some (Coords.Agg _) -> true
    | Some (Coords.Edge _), Some (Coords.Core _) | Some (Coords.Core _), Some (Coords.Edge _) ->
      flat
    | _, _ -> false

  let broadcast_receivers views =
    List.filter_map
      (fun (v : FM.switch_view) ->
        match v.FM.v_coords with
        | Some (Coords.Edge _) when v.FM.v_host_ports <> [] ->
          Some (v.FM.v_id, List.sort_uniq int_compare v.FM.v_host_ports)
        | _ -> None)
      views

  (* one group's tree from scratch: (chosen core, per-switch port sets) *)
  let tree ~(spec : MR.spec) ~faults views by_id group receivers =
    if receivers = [] then (None, [])
    else begin
      let receiver_coords =
        List.filter_map
          (fun (sw, _) ->
            match coords_of by_id sw with
            | Some (Coords.Edge e) -> Some (e.pod, e.position)
            | _ -> None)
          receivers
      in
      let transit = build_transit views by_id in
      let flat = spec.MR.wiring = MR.Flat in
      let cores =
        List.filter_map
          (fun (v : FM.switch_view) ->
            match v.FM.v_coords with
            | Some (Coords.Core c) -> Some (c.stripe, c.member, v)
            | _ -> None)
          views
        |> List.sort (fun (s1, m1, (a : FM.switch_view)) (s2, m2, (b : FM.switch_view)) ->
               compare (s1, m1, a.FM.v_id) (s2, m2, b.FM.v_id))
        |> Array.of_list
      in
      let viable (stripe, member, (v : FM.switch_view)) =
        List.for_all
          (fun (pod, edge_pos) ->
            (not (Fault.Set.agg_core_down faults ~pod ~stripe ~member))
            && (flat
                ||
                match Hashtbl.find_opt transit (v.FM.v_id, pod) with
                | Some { FM.v_coords = Some (Coords.Agg a); _ } ->
                  not (Fault.Set.edge_agg_down faults ~pod ~edge_pos ~stripe:a.stripe)
                | Some _ | None -> false))
          receiver_coords
      in
      let n = Array.length cores in
      let rec probe start i =
        if i >= n then None
        else if viable cores.((start + i) mod n) then Some cores.((start + i) mod n)
        else probe start (i + 1)
      in
      match if n = 0 then None else probe (Ip.multicast_group group mod n) 0 with
      | None -> (None, [])
      | Some (_, _, core) ->
        let receiver_pods = List.sort_uniq int_compare (List.map fst receiver_coords) in
        let transit_agg pod = Hashtbl.find_opt transit (core.FM.v_id, pod) in
        let recv_in pod =
          List.filter_map
            (fun (sw, _) ->
              match coords_of by_id sw with
              | Some (Coords.Edge e) when e.pod = pod -> Some sw
              | _ -> None)
            receivers
        in
        let targets = ref [] in
        let add sw ports =
          let ports = List.sort_uniq int_compare ports in
          if ports <> [] then targets := (sw, ports) :: !targets
        in
        let opt = function Some p -> [ p ] | None -> [] in
        add core.FM.v_id
          (List.filter_map
             (fun pod ->
               if flat then
                 match List.rev (recv_in pod) with rsw :: _ -> port_to core rsw | [] -> None
               else
                 match transit_agg pod with
                 | Some agg -> port_to core agg.FM.v_id
                 | None -> None)
             receiver_pods);
        List.iter
          (fun (v : FM.switch_view) ->
            match v.FM.v_coords with
            | Some (Coords.Agg a) when not flat -> (
              match transit_agg a.pod with
              | Some t when t.FM.v_id = v.FM.v_id ->
                add v.FM.v_id
                  (opt (port_to v core.FM.v_id) @ List.filter_map (port_to v) (recv_in a.pod))
              | _ -> ())
            | Some (Coords.Edge e) ->
              let up =
                if flat then opt (port_to v core.FM.v_id)
                else
                  match transit_agg e.pod with
                  | Some agg -> opt (port_to v agg.FM.v_id)
                  | None -> []
              in
              let local = try List.assoc v.FM.v_id receivers with Not_found -> [] in
              add v.FM.v_id (up @ local)
            | _ -> ())
          views;
        (Some core.FM.v_id, List.sort by_switch_id !targets)
    end

  (* the Mcast_program sends that move [old] to [targets]: clears first,
     in the old order, then every changed port set *)
  let sends group ~old targets =
    List.filter_map
      (fun (sw, _) -> if List.mem_assoc sw targets then None else Some (sw, group, []))
      old
    @ List.filter_map
        (fun (sw, ports) ->
          match List.assoc_opt sw old with
          | Some p when p = ports -> None
          | Some _ | None -> Some (sw, group, ports))
        targets
end

(* A topology's ground truth: what every switch would report once LDP
   has settled, plus its physical links. *)
type fixture = {
  spec : MR.spec;
  switches : int array;
  level : (int, Ldp.level) Hashtbl.t;
  neighbors : (int, (int * int * Ldp.level) list) Hashtbl.t;
  host_ports : (int, int list) Hashtbl.t;
  edges : (int * int) array; (* (edge id, position) *)
  links : (int * int * int) array; (* (switch, port, neighbor switch) *)
  mutable reference : (int * Coords.t) list option;
}

let fixture spec =
  let mt = MR.build spec in
  let topo = mt.MR.topo in
  let level_of id =
    match (Topology.Topo.node topo id).Topology.Topo.kind with
    | Topology.Topo.Edge_switch -> Some Ldp.Edge
    | Topology.Topo.Agg_switch -> Some Ldp.Aggregation
    | Topology.Topo.Core_switch -> Some Ldp.Core
    | Topology.Topo.Host -> None
  in
  let switches =
    Array.to_list (Topology.Topo.nodes topo)
    |> List.filter_map (fun (n : Topology.Topo.node) ->
           Option.map (fun _ -> n.Topology.Topo.id) (level_of n.Topology.Topo.id))
    |> Array.of_list
  in
  let level = Hashtbl.create 64 and neighbors = Hashtbl.create 64 in
  let host_ports = Hashtbl.create 64 and links = ref [] in
  Array.iter
    (fun id ->
      Hashtbl.replace level id (Option.get (level_of id));
      let nbrs, hosts =
        List.partition_map
          (fun (port, (ep : Topology.Topo.endpoint)) ->
            match level_of ep.Topology.Topo.node with
            | Some l -> Left (port, ep.Topology.Topo.node, l)
            | None -> Right port)
          (Topology.Topo.neighbors topo id)
      in
      Hashtbl.replace neighbors id nbrs;
      Hashtbl.replace host_ports id hosts;
      List.iter (fun (port, nbr, _) -> links := (id, port, nbr) :: !links) nbrs)
    switches;
  let edges =
    Array.to_list mt.MR.edges
    |> List.concat_map (fun row -> Array.to_list (Array.mapi (fun pos id -> (id, pos)) row))
    |> Array.of_list
  in
  { spec; switches; level; neighbors; host_ports; edges; links = Array.of_list (List.rev !links);
    reference = None }

type action =
  | Report of { sw : int; full : bool; nbr_mask : int; lvl_mask : int; self_known : bool }
  | Repeat of int (* the switch's last report again, byte for byte *)
  | Level_flip of int (* the last report with its own level known <-> unknown *)
  | Propose of { edge : int; position : int option } (* None: its true position *)
  | Reclaim_own of int (* re-register the coordinates the FM holds for it *)
  | Reclaim_ref of int (* claim the coordinates a reference boot granted *)
  | Fault_link of int
  | Recover_link of int
  | Join of { edge : int; group : int; port : int }
  | Leave of { edge : int; group : int; port : int }

let pp_action = function
  | Report { sw; full; nbr_mask; lvl_mask; self_known } ->
    Printf.sprintf "Report(%d,%b,%x,%x,%b)" sw full nbr_mask lvl_mask self_known
  | Repeat i -> Printf.sprintf "Repeat %d" i
  | Level_flip i -> Printf.sprintf "Level_flip %d" i
  | Propose { edge; position } ->
    Printf.sprintf "Propose(%d,%s)" edge
      (match position with Some p -> string_of_int p | None -> "true")
  | Reclaim_own i -> Printf.sprintf "Reclaim_own %d" i
  | Reclaim_ref i -> Printf.sprintf "Reclaim_ref %d" i
  | Fault_link i -> Printf.sprintf "Fault %d" i
  | Recover_link i -> Printf.sprintf "Recover %d" i
  | Join { edge; group; port } -> Printf.sprintf "Join(%d,%d,%d)" edge group port
  | Leave { edge; group; port } -> Printf.sprintf "Leave(%d,%d,%d)" edge group port

let mcast_groups = [| Ip.of_octets 239 1 0 1; Ip.of_octets 239 1 0 2; Ip.of_octets 239 7 3 9 |]

(* Drive a bare FM through [script], message by message. [check] is
   called after each delivered message with the FM and the
   [Mcast_program] sends it made, as (switch, group, ports). *)
let run_script fx script ~check =
  let engine = Eventsim.Engine.create () in
  let ctrl = Portland.Ctrl.create engine ~latency:(Time.us 50) in
  let fm = FM.create engine Portland.Config.default ctrl ~spec:fx.spec in
  let sent = ref [] in
  Array.iter
    (fun id ->
      Portland.Ctrl.register_switch ctrl id (function
        | Msg.Mcast_program { group; out_ports } -> sent := (id, group, out_ports) :: !sent
        | _ -> ()))
    fx.switches;
  Eventsim.Engine.run engine;
  let nsw = Array.length fx.switches and nedge = Array.length fx.edges in
  let last = Hashtbl.create 64 in
  let report id ~level ~neighbors ~host_ports =
    Hashtbl.replace last id (level, neighbors, host_ports);
    Some (id, Msg.Neighbor_report { switch_id = id; level; neighbors; host_ports })
  in
  let link i ~dir =
    let a, port, b = fx.links.(i mod Array.length fx.links) in
    if dir then (a, port, b)
    else
      let port' = List.find_map (fun (p, n, _) -> if n = a then Some p else None)
          (Hashtbl.find fx.neighbors b) in
      (b, Option.get port', a)
  in
  let mcast edge group port =
    let id, _ = fx.edges.(edge mod nedge) in
    (id, mcast_groups.(group mod Array.length mcast_groups), port mod fx.spec.MR.hosts_per_edge)
  in
  let message = function
    | Report { sw; full; nbr_mask; lvl_mask; self_known } ->
      let id = fx.switches.(sw mod nsw) in
      let lvl = Hashtbl.find fx.level id in
      let truth = Hashtbl.find fx.neighbors id and hosts = Hashtbl.find fx.host_ports id in
      if full then
        report id ~level:(Some lvl)
          ~neighbors:(List.map (fun (p, n, l) -> (p, n, Some l)) truth)
          ~host_ports:hosts
      else
        let bit m i = (m lsr (i mod 30)) land 1 = 1 in
        report id
          ~level:(if self_known then Some lvl else None)
          ~neighbors:
            (List.filteri (fun i _ -> bit nbr_mask i) truth
            |> List.mapi (fun i (p, n, l) -> (p, n, if bit lvl_mask i then Some l else None)))
          ~host_ports:(List.filteri (fun i _ -> bit nbr_mask (i + 15)) hosts)
    | Repeat sw ->
      let id = fx.switches.(sw mod nsw) in
      Option.bind (Hashtbl.find_opt last id) (fun (level, neighbors, host_ports) ->
          report id ~level ~neighbors ~host_ports)
    | Level_flip sw ->
      let id = fx.switches.(sw mod nsw) in
      Option.bind (Hashtbl.find_opt last id) (fun (level, neighbors, host_ports) ->
          let level = match level with Some _ -> None | None -> Some (Hashtbl.find fx.level id) in
          report id ~level ~neighbors ~host_ports)
    | Propose { edge; position } ->
      let id, pos = fx.edges.(edge mod nedge) in
      let position = Option.value position ~default:pos in
      Some (id, Msg.Propose_position { switch_id = id; position })
    | Reclaim_own sw ->
      let id = fx.switches.(sw mod nsw) in
      Option.map (fun coords -> (id, Msg.Reclaim_coords { switch_id = id; coords }))
        (FM.switch_coords fm id)
    | Reclaim_ref sw ->
      let id = fx.switches.(sw mod nsw) in
      Option.map (fun coords -> (id, Msg.Reclaim_coords { switch_id = id; coords }))
        (List.assoc_opt id (Option.value fx.reference ~default:[]))
    | Fault_link i ->
      let a, port, b = link (i / 2) ~dir:(i land 1 = 0) in
      Some (a, Msg.Fault_notice { switch_id = a; port; neighbor = b })
    | Recover_link i ->
      let a, port, b = link (i / 2) ~dir:(i land 1 = 0) in
      Some (a, Msg.Recovery_notice { switch_id = a; port; neighbor = b })
    | Join { edge; group; port } ->
      let id, group, port = mcast edge group port in
      Some (id, Msg.Mcast_join { switch_id = id; group; port })
    | Leave { edge; group; port } ->
      let id, group, port = mcast edge group port in
      Some (id, Msg.Mcast_leave { switch_id = id; group; port })
  in
  List.iteri
    (fun step action ->
      match message action with
      | None -> ()
      | Some (from, msg) ->
        sent := [];
        Portland.Ctrl.send_to_fm ctrl ~from msg;
        Eventsim.Engine.run engine;
        check step msg fm (List.rev !sent))
    script;
  fm

(* every switch reports the truth twice, every edge proposes its true
   position twice: enough for a whole-fabric labelling in any order *)
let skeleton fx =
  let nsw = Array.length fx.switches and nedge = Array.length fx.edges in
  let full sw = Report { sw; full = true; nbr_mask = 0; lvl_mask = 0; self_known = true } in
  let reports = List.init nsw full and proposals = List.init nedge (fun edge -> Propose { edge; position = None }) in
  reports @ proposals @ reports @ proposals

let reference_coords fx =
  match fx.reference with
  | Some r -> r
  | None ->
    let fm = run_script fx (skeleton fx) ~check:(fun _ _ _ _ -> ()) in
    let r =
      Array.to_list fx.switches
      |> List.filter_map (fun id -> Option.map (fun c -> (id, c)) (FM.switch_coords fm id))
    in
    fx.reference <- Some r;
    r

let gen_script fx =
  let open QCheck2.Gen in
  let nsw = Array.length fx.switches and nedge = Array.length fx.edges in
  let sw = int_bound (nsw - 1) and edge = int_bound (nedge - 1) in
  let link = int_bound ((2 * Array.length fx.links) - 1) in
  let mask = int_bound 0x3fffffff in
  let mcast f = map3 (fun edge group port -> f edge group port) edge (int_bound 2) (int_bound 7) in
  let noise =
    frequency
      [ (4, map (fun (sw, nbr_mask, lvl_mask, self_known) ->
               Report { sw; full = false; nbr_mask; lvl_mask; self_known })
             (quad sw mask mask bool));
        (2, map (fun sw -> Report { sw; full = true; nbr_mask = 0; lvl_mask = 0; self_known = true }) sw);
        (3, map (fun sw -> Repeat sw) sw);
        (2, map (fun sw -> Level_flip sw) sw);
        (1, map2 (fun edge p -> Propose { edge; position = Some p }) edge
              (int_bound fx.spec.MR.edges_per_pod));
        (1, map (fun sw -> Reclaim_own sw) sw);
        (2, map (fun sw -> Reclaim_ref sw) sw);
        (3, map (fun l -> Fault_link l) link);
        (3, map (fun l -> Recover_link l) link);
        (3, mcast (fun edge group port -> Join { edge; group; port }));
        (2, mcast (fun edge group port -> Leave { edge; group; port })) ]
  in
  (* a batch of reclaims leads, as after a fabric-manager restart; the
     ones among the noise can hand one pod label to two physical pods,
     which exercises the lowest-id tie-breaks *)
  let* reclaims = list_size (int_bound (nsw / 2)) (map (fun sw -> Reclaim_ref sw) sw) in
  let* noise = list_size (int_range (nsw / 2) (2 * nsw)) noise in
  let* body = shuffle_l (skeleton fx @ noise) in
  return (reclaims @ body)

let differential_check fx script =
  let flat = fx.spec.MR.wiring = MR.Flat in
  let prog = Hashtbl.create 8 and core = Hashtbl.create 8 in
  let prev_faults = ref [] in
  let fail step fmt =
    Printf.ksprintf (fun s -> QCheck2.Test.fail_reportf "after message %d: %s" step s) fmt
  in
  let show_sends l =
    String.concat " "
      (List.map
         (fun (sw, g, ports) ->
           Printf.sprintf "%d:%s:[%s]" sw (Ip.to_string g)
             (String.concat "," (List.map string_of_int ports)))
         l)
  in
  let check step msg fm got =
    let views = FM.switch_views fm in
    let by_id = Hashtbl.create 64 in
    List.iter (fun (v : FM.switch_view) -> Hashtbl.replace by_id v.FM.v_id v) views;
    let show = List.map (fun (c, p, a) -> Printf.sprintf "%d/%d->%d" c p a) in
    let fresh = Oracle.transit_entries (Oracle.build_transit views by_id) in
    let live = FM.transit_entries fm in
    if fresh <> live then
      fail step "live transit map [%s] <> fresh build [%s]" (String.concat " " (show live))
        (String.concat " " (show fresh));
    let fault_list = FM.fault_set fm in
    let faults = Fault.Set.of_list fault_list in
    (* the groups a from-scratch FM, recomputing on every trigger, recomputes here *)
    let recomputed =
      match msg with
      | Msg.Neighbor_report _ | Msg.Propose_position _ -> [ Ip.broadcast ]
      | Msg.Fault_notice _ when fault_list <> !prev_faults -> FM.group_ids fm
      | Msg.Recovery_notice { switch_id; neighbor; _ }
        when Oracle.translates ~flat by_id switch_id neighbor ->
        FM.group_ids fm
      | Msg.Mcast_join { group; _ } | Msg.Mcast_leave { group; _ } -> [ group ]
      | _ -> []
    in
    prev_faults := fault_list;
    let expected =
      List.concat_map
        (fun group ->
          let receivers =
            if Ip.is_broadcast group then Oracle.broadcast_receivers views
            else FM.group_receivers fm group
          in
          let c, targets = Oracle.tree ~spec:fx.spec ~faults views by_id group receivers in
          let old = try Hashtbl.find prog group with Not_found -> [] in
          Hashtbl.replace prog group targets;
          Hashtbl.replace core group c;
          Oracle.sends group ~old targets)
        recomputed
    in
    if got <> expected then
      fail step "Mcast_program sends [%s] <> oracle [%s]" (show_sends got) (show_sends expected);
    List.iter
      (fun group ->
        let want = try Hashtbl.find core group with Not_found -> None in
        if FM.group_core fm group <> want then
          fail step "group %s: core differs from the oracle's" (Ip.to_string group);
        let want = try Hashtbl.find prog group with Not_found -> [] in
        if FM.group_programmed fm group <> want then
          fail step "group %s: programmed port sets differ from the oracle's"
            (Ip.to_string group))
      (FM.group_ids fm)
  in
  ignore (run_script fx script ~check);
  true

let differential_prop name spec ~count =
  let fx = fixture spec in
  ignore (reference_coords fx);
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count
       ~print:(fun l -> String.concat "; " (List.map pp_action l))
       (gen_script fx) (differential_check fx))

let differential_props =
  List.concat_map
    (fun (k, count) ->
      List.map
        (fun name ->
          match Topology.Topo.Family.of_string ~k name with
          | Error e -> failwith e
          | Ok family ->
            differential_prop
              (Printf.sprintf "%s k=%d: live trees = from-scratch oracle" name k)
              (MR.spec_of_family family) ~count)
        [ "plain"; "ab"; "two-layer" ])
    [ (4, 100); (8, 20) ]

(* ---------------- golden boot digests ---------------- *)

(* k=8 boot of every family, pinned to the values the from-scratch tree
   computation produces. [control_digest]
   does not cover multicast programming, so the message count and byte
   total of the FM -> switch channel are what catch a changed
   [Mcast_program] send sequence. *)
let golden_boot =
  [ ("plain", "1c578cb18f98ddbc", 290, 3538);
    ("ab", "3a0ce5ebe94496dc", 190, 2006);
    ("two-layer", "08453fe4770164ee", 36, 486) ]

let boot_family ~k name =
  match Topology.Topo.Family.of_string ~k name with
  | Error e -> Alcotest.fail e
  | Ok family -> Testutil.converged_family family

let test_golden_boot () =
  List.iter
    (fun (name, digest, msgs, bytes) ->
      let fab = boot_family ~k:8 name in
      let ctrl = F.ctrl fab in
      Testutil.check_string (name ^ ": control digest") digest (F.control_digest fab);
      Testutil.check_int (name ^ ": FM -> switch messages") msgs
        (Portland.Ctrl.to_switch_count ctrl);
      Testutil.check_int (name ^ ": FM -> switch bytes") bytes
        (Portland.Ctrl.to_switch_bytes ctrl))
    golden_boot

(* exact tree-maintenance work of a k=8 plain boot: a change in any of
   these is a change in how much the FM recomputes *)
let test_boot_work_counters () =
  let fab = boot_family ~k:8 "plain" in
  let c = FM.counters (F.fabric_manager fab) in
  Testutil.check_int "reports" 339 c.FM.reports;
  Testutil.check_int "recomputes run" 59 c.FM.mcast_recomputes;
  (* run + skipped = the 390 recomputes a from-scratch FM makes *)
  Testutil.check_int "recomputes skipped" 331 c.FM.mcast_recompute_skips;
  (* one insertion per (core, pod) pair: 16 cores x 8 pods *)
  Testutil.check_int "transit updates" 128 c.FM.transit_updates

let () =
  Alcotest.run "fm"
    [ ( "pending-arp",
        [ Alcotest.test_case "dedupe per (switch, requester, port)" `Quick
            test_pending_dedupe;
          Alcotest.test_case "dropped when the asking switch dies" `Quick
            test_pending_dropped_on_switch_death ] );
      ( "sharding",
        [ Alcotest.test_case "resolve_batch = resolve, all shard counts" `Quick
            test_resolve_batch_matches_resolve;
          Alcotest.test_case "shard integrity on a converged fabric" `Quick
            test_shard_integrity_converged;
          Alcotest.test_case "failover rebuilds every shard from its log" `Quick
            test_failover_shard;
          Alcotest.test_case "edge resync reads only the owning shard's log" `Quick
            test_resync_reads_only_owning_shard ] );
      ( "fm-restart-race",
        [ Alcotest.test_case "ARP miss in flight, classic engine" `Quick
            test_fm_restart_races_arp_miss;
          Alcotest.test_case "ARP miss in flight, sharded FM" `Quick
            test_fm_restart_races_arp_miss_sharded_fm;
          Alcotest.test_case "ARP miss in flight, sharded engine" `Quick
            test_fm_restart_races_arp_miss_sharded_engine ] );
      ("tree-oracle", differential_props);
      ( "tree-golden",
        [ Alcotest.test_case "golden k=8 boot digests, every family" `Quick test_golden_boot;
          Alcotest.test_case "k=8 plain boot work counters" `Quick test_boot_work_counters ] );
      ( "edge-arp-cache",
        [ Alcotest.test_case "migration bumps the generation and re-resolves" `Quick
            test_arp_cache_generation_migration;
          Alcotest.test_case "cold reboot wipes cache and generation floor" `Quick
            test_arp_cache_wiped_on_reboot ] ) ]
