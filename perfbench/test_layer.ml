(* Tests of the benchmark's own code: the tag classifier names a layer for
   every control message and every PortLand frame, and a traced run of
   each workload (at a small size) claims every tag it meets and
   reproduces the plain run's control digest. *)

open Perfbench
module Msg = Portland.Msg

(* These matches are exhaustive on purpose: a new constructor fails to
   compile here until it has a witness below. *)
let fm_kind : Msg.to_fm -> string = function
  | Msg.Neighbor_report _ -> "Neighbor_report"
  | Msg.Propose_position _ -> "Propose_position"
  | Msg.Arp_query _ -> "Arp_query"
  | Msg.Host_announce _ -> "Host_announce"
  | Msg.Fault_notice _ -> "Fault_notice"
  | Msg.Recovery_notice _ -> "Recovery_notice"
  | Msg.Mcast_join _ -> "Mcast_join"
  | Msg.Mcast_leave _ -> "Mcast_leave"
  | Msg.Reclaim_coords _ -> "Reclaim_coords"
  | Msg.Coords_request _ -> "Coords_request"

let switch_kind : Msg.to_switch -> string = function
  | Msg.Assign_coords _ -> "Assign_coords"
  | Msg.Position_denied _ -> "Position_denied"
  | Msg.Arp_answer _ -> "Arp_answer"
  | Msg.Arp_flood _ -> "Arp_flood"
  | Msg.Fault_update _ -> "Fault_update"
  | Msg.Invalidate_pmac _ -> "Invalidate_pmac"
  | Msg.Mcast_program _ -> "Mcast_program"
  | Msg.Resync_request -> "Resync_request"
  | Msg.Host_restore _ -> "Host_restore"
  | Msg.Arp_gen _ -> "Arp_gen"

(* Where each Ethernet payload is charged; [None]: not PortLand traffic. *)
let payload_layer ~to_host : Netcore.Eth.payload -> Layer.t option = function
  | Netcore.Eth.Ldp _ -> Some Layer.Ldp
  | Netcore.Eth.Arp _ | Netcore.Eth.Ipv4 _ ->
    Some (if to_host then Layer.Host_agent else Layer.Switchfab)
  | Netcore.Eth.Bpdu _ | Netcore.Eth.Raw _ -> None

let ip = Netcore.Ipv4_addr.of_octets 10 0 0 2
let group = Netcore.Ipv4_addr.of_octets 224 0 0 9
let pmac = Portland.Pmac.make ~pod:0 ~position:0 ~port:0 ~vmid:1
let coords = Portland.Coords.Edge { pod = 0; position = 0 }
let binding = { Msg.ip; amac = Netcore.Mac_addr.of_int 2; pmac; edge_switch = 3 }

let fm_witnesses =
  [ Msg.Neighbor_report
      { switch_id = 3; level = Some Netcore.Ldp_msg.Edge;
        neighbors = [ (0, 5, Some Netcore.Ldp_msg.Aggregation) ]; host_ports = [ 1 ] };
    Msg.Propose_position { switch_id = 3; position = 0 };
    Msg.Arp_query
      { switch_id = 3; requester_ip = ip; requester_pmac = pmac; requester_port = 1;
        target_ip = ip };
    Msg.Host_announce binding;
    Msg.Fault_notice { switch_id = 3; port = 0; neighbor = 5 };
    Msg.Recovery_notice { switch_id = 3; port = 0; neighbor = 5 };
    Msg.Mcast_join { switch_id = 3; group; port = 1 };
    Msg.Mcast_leave { switch_id = 3; group; port = 1 };
    Msg.Reclaim_coords { switch_id = 3; coords };
    Msg.Coords_request { switch_id = 3 } ]

let switch_witnesses =
  [ Msg.Assign_coords coords;
    Msg.Position_denied { position = 1 };
    Msg.Arp_answer
      { target_ip = ip; target_pmac = Some pmac; requester_ip = ip; requester_port = 1; gen = 0 };
    Msg.Arp_flood { requester_ip = ip; requester_pmac = pmac; target_ip = ip };
    Msg.Fault_update { faults = [ Portland.Fault.Edge_agg { pod = 0; edge_pos = 0; stripe = 0 } ] };
    Msg.Invalidate_pmac { ip; old_pmac = pmac; new_pmac = pmac };
    Msg.Mcast_program { group; out_ports = [ 1 ] };
    Msg.Resync_request;
    Msg.Host_restore { bindings = [ binding ] };
    Msg.Arp_gen { gen = 1 } ]

let mac = Netcore.Mac_addr.of_int 2

let payload_witnesses =
  [ Netcore.Eth.Ldp (Netcore.Ldp_msg.initial ~switch_id:3 ~out_port:0);
    Netcore.Eth.Arp (Netcore.Arp.gratuitous ~mac ~ip);
    Netcore.Eth.Ipv4
      (Netcore.Ipv4_pkt.udp ~src:ip ~dst:ip
         (Netcore.Udp.make ~flow_id:1 ~app_seq:0 ~payload_len:64 ()));
    Netcore.Eth.Bpdu { Netcore.Bpdu.root_id = 1; root_cost = 0; bridge_id = 1; port = 0 };
    Netcore.Eth.Raw { ethertype = 0x88b5; len = 0 } ]

let layer = Alcotest.testable (Fmt.of_to_string Layer.name) ( = )

(* The tags the real control network attaches to each message. *)
let ctrl_tags send =
  let engine = Eventsim.Engine.create () in
  let ctrl = Portland.Ctrl.create engine ~latency:(Eventsim.Time.us 50) in
  Portland.Ctrl.register_fm ctrl (fun ~from:_ _ -> ());
  Portland.Ctrl.register_switch ctrl 3 (fun _ -> ());
  let tags = ref [] in
  Eventsim.Engine.set_interceptor engine
    (Some
       { Eventsim.Engine.on_schedule = (fun ~tag ~now:_ ~due -> tags := tag :: !tags; due);
         on_fire = (fun ~tag:_ ~time:_ -> ()) });
  send ctrl;
  List.rev !tags

let test_ctrl_messages () =
  let check expected kind_of msgs send =
    let tags = ctrl_tags (fun ctrl -> List.iter (send ctrl) msgs) in
    Alcotest.(check int) "one tag per message" (List.length msgs) (List.length tags);
    List.iter2
      (fun m tag ->
        match Layer.classify tag with
        | Some (l, kind) ->
          Alcotest.check layer tag expected l;
          Alcotest.(check string) tag (kind_of m) kind
        | None -> Alcotest.failf "no layer claims %S" tag)
      msgs tags
  in
  check Layer.Fabric_manager fm_kind fm_witnesses (fun ctrl m ->
      Portland.Ctrl.send_to_fm ctrl ~from:3 m);
  check Layer.Switch_agent switch_kind switch_witnesses (fun ctrl m ->
      Portland.Ctrl.send_to_switch ctrl 3 m)

let test_frames () =
  List.iter
    (fun payload ->
      List.iter
        (fun to_host ->
          let tag = Layer.frame_tag ~to_host (Netcore.Eth.make ~dst:mac ~src:mac payload) in
          Alcotest.(check (option layer)) tag (payload_layer ~to_host payload)
            (Option.map fst (Layer.classify tag)))
        [ false; true ])
    payload_witnesses

let small =
  { Scenario.bench_sizes with
    Scenario.boot_k = 4; boot_probes = 8; traffic_k = 4; traffic_span = Eventsim.Time.ms 20;
    traffic_drain = Eventsim.Time.ms 10; chaos_k = 4; chaos_duration = Eventsim.Time.sec 3 }

(* Every tag a traced run meets is claimed, the traced run reproduces the
   plain run's simulation exactly, and the workload's layers all fire. *)
let test_workload workload layers () =
  let run traced = Scenario.run ~sizes:small workload ~traced ~seed:5 in
  let plain, _ = run false and traced, acct = run true in
  let digest r = Portland.Fabric.control_digest r.Scenario.fab in
  Alcotest.(check (list string)) "plain problems" [] plain.Scenario.outcome.Scenario.problems;
  Alcotest.(check (list string)) "traced problems" [] traced.Scenario.outcome.Scenario.problems;
  Alcotest.(check string) "control digest" (digest plain) (digest traced);
  Alcotest.(check (option string)) "verify digest" plain.Scenario.verify_digest
    traced.Scenario.verify_digest;
  Alcotest.(check (list string)) "unclaimed tags" [] (Layer.unclaimed_tags acct);
  List.iter
    (fun l -> Alcotest.(check bool) (Layer.name l ^ " fired") true (Layer.layer_n acct l > 0))
    layers

let () =
  Alcotest.run "perfbench"
    [ ( "classifier",
        [ Alcotest.test_case "every control message" `Quick test_ctrl_messages;
          Alcotest.test_case "every frame payload" `Quick test_frames ] );
      ( "traced runs",
        [ Alcotest.test_case "boot" `Quick
            (test_workload Scenario.Boot
               Layer.[ Fabric_manager; Switch_agent; Ldp; Switchfab; Eventsim; Build ]);
          Alcotest.test_case "traffic" `Quick
            (test_workload Scenario.Traffic Layer.[ Switchfab; Host_agent; Eventsim ]);
          Alcotest.test_case "chaos" `Quick
            (test_workload Scenario.Chaos
               Layer.[ Fabric_manager; Switch_agent; Ldp; Verify; Failure_api; Probe ]) ] ) ]
