(* The benchmark's three workloads, each runnable plain (the code paths a
   user runs, timed end to end) or traced (the same simulation driven
   event by event, with wall time charged to layers; see {!Layer}).

   Sizes were chosen so that each workload's work phase takes a few
   seconds on a 2-core host and is dominated by a different layer:
   - boot: k=24 self-configuration, the control-plane write path (FM);
   - traffic: a converged k=16 fabric forwarding a UDP permutation, the
     dataplane read path (switchfab);
   - chaos: a converged k=8 fabric under a mixed fault campaign verified
     after every update, fault recovery beside verification. *)

open Eventsim
module F = Portland.Fabric
module MR = Topology.Multirooted
module V = Portland_verify.Verify

type workload = Boot | Traffic | Chaos

let workloads = [ ("boot", Boot); ("traffic", Traffic); ("chaos", Chaos) ]

type sizes = {
  boot_k : int;
  boot_probes : int;
  traffic_k : int;
  traffic_pps : int;
  traffic_payload : int;  (* bytes; frames are never serialised, so size only moves sim time *)
  traffic_span : Time.t;
  traffic_drain : Time.t;
  chaos_k : int;
  chaos_duration : Time.t;
}

let bench_sizes =
  { boot_k = 24; boot_probes = 64; traffic_k = 16; traffic_pps = 1000; traffic_payload = 64;
    traffic_span = Time.ms 300; traffic_drain = Time.ms 50; chaos_k = 8;
    chaos_duration = Time.sec 20 }

(* [Chaos.run_campaign]'s executor constants, which the traced replay
   must share to reproduce the campaign exactly. *)
let chaos_settle = Time.ms 150
let chaos_check_gap = Time.ms 250
let chaos_probes_per_check = 4

(* ---------------- how a run advances time ---------------- *)

(* Plain runs call the library directly. Traced runs re-implement
   [Fabric.run_until] and [Fabric.await_convergence] on top of
   [Engine.step] — with exactly the same event order and clock — so each
   event's wall time can be charged to its layer. *)
type drive = {
  run_until : F.t -> Time.t -> unit;
  await : F.t -> bool;
  call : 'a. Layer.t -> string -> (unit -> 'a) -> 'a;
}

let plain =
  { run_until = F.run_until; await = (fun fab -> F.await_convergence fab);
    call = (fun _ _ f -> f ()) }

let host_count fab = Array.length (F.tree fab).MR.hosts

(* Every agent operational and every host's binding registered. *)
let state_problems fab =
  let down =
    List.filter (fun a -> not (Portland.Switch_agent.is_operational a)) (F.agents fab)
  in
  let missing = host_count fab - Portland.Fabric_manager.binding_count (F.fabric_manager fab) in
  (if down = [] then []
   else [ Printf.sprintf "%d switch agents not operational" (List.length down) ])
  @ if missing <= 0 then [] else [ Printf.sprintf "%d host bindings missing" missing ]

let traced_drive (a : Layer.acct) =
  let run_until fab until =
    let e = F.engine fab in
    let rec go () =
      match Engine.next_time e with
      | None -> ()
      | Some t when t > until -> Engine.advance_clock e ~time:until
      | Some _ ->
        Layer.step a e;
        go ()
    in
    go ()
  in
  let await fab =
    let deadline = F.now fab + Time.sec 5 in
    let rec go () =
      if Layer.time a Layer.Probe "converged" (fun () -> state_problems fab = []) then begin
        run_until fab (F.now fab + (3 * (F.proto_config fab).Portland.Config.ldm_period));
        true
      end
      else if F.now fab >= deadline then false
      else begin
        run_until fab (min deadline (F.now fab + Time.ms 10));
        go ()
      end
    in
    go ()
  in
  { run_until; await; call = (fun layer kind f -> Layer.time a layer kind f) }

(* ---------------- shared pieces ---------------- *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (* why the run is not correct; [] = correct *)
}

type run = {
  fab : F.t;
  setup_ns : int;
  work_ns : int;
  outcome : outcome;
  verify_digest : string option;  (* chaos only *)
}

let create drive ?(seed = 42) ~k () =
  drive.call Layer.Build "create" (fun () -> F.create (F.Config.fattree ~seed ~k ()))

(* Switch the engine to traced mode. Must happen before the first event
   fires; tagged events keep their natural time, so the run is unchanged. *)
let install_tracing a fab =
  let net = F.net fab in
  let is_host =
    Array.init (Switchfab.Net.device_count net) (fun d ->
        Switchfab.Net.kind (Switchfab.Net.device net d) = Topology.Topo.Host)
  in
  Switchfab.Net.set_delivery_tagger net (Some (Layer.tagger ~is_host:(Array.get is_host)));
  Engine.set_interceptor (F.engine fab) (Some (Layer.interceptor a))

let host_at fab idx =
  let spec = (F.tree fab).MR.spec in
  let per_pod = spec.MR.edges_per_pod * spec.MR.hosts_per_edge in
  let rem = idx mod per_pod in
  F.host fab ~pod:(idx / per_pod) ~edge:(rem / spec.MR.hosts_per_edge)
    ~slot:(rem mod spec.MR.hosts_per_edge)

let probe_payload = Netcore.Ipv4_pkt.Udp (Netcore.Udp.make ~flow_id:1 ~app_seq:0 ~payload_len:64 ())

(* [n] seed-determined host pairs whose routes must resolve. *)
let probe_routes fab ~seed ~n =
  let prng = Prng.create (seed lxor 0x5EED) in
  let hosts = Array.init (host_count fab) Fun.id in
  let pairs = Workloads.Traffic.sample_pairs prng hosts ~n in
  List.fold_left
    (fun bad (i, j) ->
      match
        F.trace_route fab ~src:(host_at fab i) ~dst_ip:(Portland.Host_agent.ip (host_at fab j))
          probe_payload
      with
      | Ok _ -> bad
      | Error e -> Printf.sprintf "probe %d->%d: %s" i j e :: bad)
    [] pairs
  |> List.rev

let timed f =
  let t0 = Layer.now_ns () in
  let r = f () in
  (r, Layer.now_ns () - t0)

let boot_to_convergence drive ?seed ~k ~on_create () =
  let fab = create drive ?seed ~k () in
  on_create fab;
  let ok = drive.await fab in
  (fab, ok)

(* ---------------- workloads ---------------- *)

(* boot: plain k=24 fat tree. Set-up builds the deployment
   (Fabric.create); the work phase is self-configuration, from the first
   event to Fabric.await_convergence. The workload seed is the fabric
   seed (agent PRNGs), so each seed boots through a different race of
   position proposals. *)
let run_boot sz drive ~on_create ~seed =
  let fab, setup_ns =
    timed (fun () ->
        let fab = create drive ~seed ~k:sz.boot_k () in
        on_create fab;
        fab)
  in
  let ok, work_ns = timed (fun () -> drive.await fab) in
  let bad_state = if ok then state_problems fab else [ "no convergence" ] in
  let bad_probes = probe_routes fab ~seed ~n:sz.boot_probes in
  { fab; setup_ns; work_ns; verify_digest = None;
    outcome =
      { attempted = 1 + sz.boot_probes;
        failed = (if bad_state = [] then 0 else 1) + List.length bad_probes;
        problems = bad_state @ bad_probes } }

(* traffic: converged k=16 fabric; every host sends a 1000 pps UDP flow
   of 64-byte datagrams to its partner in a seed-drawn permutation for
   300 ms of simulated time, then the network drains. *)
let run_traffic sz drive ~on_create ~seed =
  let setup () =
    let fab, ok = boot_to_convergence drive ~k:sz.traffic_k ~on_create () in
    if not ok then failwith "traffic: set-up boot did not converge";
    let n = host_count fab in
    let pairs =
      Workloads.Traffic.random_permutation (Prng.create seed) (Array.init n Fun.id)
    in
    let engine = F.engine fab in
    let receivers =
      List.map
        (fun (src, dst) ->
          let mux = Transport.Port_mux.attach (host_at fab dst) in
          (src, dst, Transport.Udp_flow.Receiver.attach engine mux ~flow_id:src ()))
        pairs
    in
    (fab, receivers)
  in
  let (fab, receivers), setup_ns = timed setup in
  let work () =
    let engine = F.engine fab in
    let senders =
      List.map
        (fun (src, dst, _) ->
          Transport.Udp_flow.Sender.start engine (host_at fab src)
            ~dst:(Portland.Host_agent.ip (host_at fab dst))
            ~payload_len:sz.traffic_payload ~flow_id:src ~rate_pps:sz.traffic_pps ())
        receivers
    in
    drive.run_until fab (F.now fab + sz.traffic_span);
    List.iter Transport.Udp_flow.Sender.stop senders;
    drive.run_until fab (F.now fab + sz.traffic_drain);
    senders
  in
  let senders, work_ns = timed work in
  let sent = List.fold_left (fun acc s -> acc + Transport.Udp_flow.Sender.sent s) 0 senders in
  let received =
    List.fold_left (fun acc (_, _, r) -> acc + Transport.Udp_flow.Receiver.received r) 0 receivers
  in
  let c = Switchfab.Net.total_counters (F.net fab) in
  let drops = c.Switchfab.Net.queue_drops + c.down_drops + c.loss_drops in
  { fab; setup_ns; work_ns; verify_digest = None;
    outcome =
      { attempted = sent; failed = sent - received;
        problems =
          (if sent = received then []
           else [ Printf.sprintf "%d of %d datagrams lost" (sent - received) sent ])
          @ (if drops = 0 then [] else [ Printf.sprintf "net reports %d drops" drops ])
          @ if sent > 0 then [] else [ "no datagrams sent" ] } }

let apply_action fab = function
  | Chaos.Fail_link { a; b } -> F.fail_link_between fab ~a ~b
  | Chaos.Recover_link { a; b } -> F.recover_link_between fab ~a ~b
  | Chaos.Crash_switch d ->
    F.fail_switch fab d;
    true
  | Chaos.Restart_switch d ->
    F.recover_switch fab d;
    true
  | Chaos.Restart_fm ->
    F.restart_fabric_manager fab;
    true
  | Chaos.Failover_fm_shard { pod } -> F.failover_fm_shard fab ~pod
  | Chaos.Set_link_loss { a; b; rate } ->
    if rate <= 0.0 then F.clear_link_loss_between fab ~a ~b
    else F.set_link_loss_between fab ~a ~b rate

let action_kind = function
  | Chaos.Fail_link _ -> "fail_link"
  | Chaos.Recover_link _ -> "recover_link"
  | Chaos.Crash_switch _ -> "crash_switch"
  | Chaos.Restart_switch _ -> "restart_switch"
  | Chaos.Restart_fm -> "restart_fm"
  | Chaos.Failover_fm_shard _ -> "failover_fm_shard"
  | Chaos.Set_link_loss _ -> "set_link_loss"

(* The traced chaos run: [Chaos.run_campaign ~verify_every_update:true]
   replayed through the library's public calls, so the verifier, the
   failure API and the probes can be timed separately. Returns
   (actions applied, checks passed, checks run, problems). *)
let replay_campaign drive ~seed fab (plan : Chaos.plan) =
  let nh = host_count fab in
  let prng = Prng.create (seed lxor 0x9B0B5) in
  let inc = drive.call Layer.Verify "incremental_attach" (fun () -> V.Incremental.attach fab) in
  let problems = ref [] in
  let applied = ref 0 and checks = ref 0 and checks_ok = ref 0 in
  let check () =
    incr checks;
    let converged = drive.await fab in
    let vrep = drive.call Layer.Verify "full_run" (fun () -> V.run fab) in
    let di =
      V.digest_of_report (drive.call Layer.Verify "refresh" (fun () -> V.Incremental.refresh inc))
    in
    let integrity =
      drive.call Layer.Probe "shard_integrity" (fun () ->
          Portland.Fabric_manager.shard_integrity (F.fabric_manager fab))
    in
    let probes_ok = ref 0 in
    for _ = 1 to chaos_probes_per_check do
      let i = Prng.int prng nh in
      let j = (i + 1 + Prng.int prng (nh - 1)) mod nh in
      match
        drive.call Layer.Probe "trace_route" (fun () ->
            F.trace_route fab ~src:(host_at fab i)
              ~dst_ip:(Portland.Host_agent.ip (host_at fab j)) probe_payload)
      with
      | Ok _ -> incr probes_ok
      | Error _ -> ()
    done;
    let ok =
      converged && V.ok vrep && di = V.digest_of_report vrep && integrity = []
      && !probes_ok = chaos_probes_per_check
    in
    if ok then incr checks_ok
    else
      problems := Printf.sprintf "check at %.1f ms failed" (Time.to_ms_f (F.now fab)) :: !problems
  in
  let arr = Array.of_list plan in
  Array.iteri
    (fun i (ev : Chaos.event) ->
      drive.run_until fab (max (F.now fab) ev.Chaos.at);
      let ok =
        drive.call Layer.Failure_api (action_kind ev.Chaos.action) (fun () ->
            apply_action fab ev.Chaos.action)
      in
      if ok then begin
        incr applied;
        ignore (drive.call Layer.Verify "refresh" (fun () -> V.Incremental.refresh inc))
      end;
      let quiescent =
        if i + 1 < Array.length arr then arr.(i + 1).Chaos.at - ev.Chaos.at >= chaos_check_gap
        else true
      in
      if quiescent then begin
        drive.run_until fab (F.now fab + chaos_settle);
        check ()
      end)
    arr;
  V.Incremental.detach inc;
  (!applied, !checks_ok, !checks, List.rev !problems)

(* chaos: converged k=8 fabric under a seed-drawn Mixed campaign of 20 s
   simulated time, the incremental verifier refreshed after every
   applied action. *)
let run_chaos sz drive ~traced ~on_create ~seed =
  let setup () =
    let fab, ok = boot_to_convergence drive ~k:sz.chaos_k ~on_create () in
    if not ok then failwith "chaos: set-up boot did not converge";
    (fab, Chaos.generate ~profile:Chaos.Mixed ~seed ~duration:sz.chaos_duration (F.tree fab))
  in
  let (fab, plan), setup_ns = timed setup in
  let work () =
    if traced then replay_campaign drive ~seed fab plan
    else begin
      let rep =
        Chaos.run_campaign ~probes_per_check:chaos_probes_per_check ~label:"mixed"
          ~verify_every_update:true ~seed fab plan
      in
      let applied = List.length (List.filter (fun e -> e.Chaos.ev_applied) rep.Chaos.rep_events) in
      let checks_ok =
        List.length
          (List.filter
             (fun c ->
               c.Chaos.chk_converged && c.Chaos.chk_violations = []
               && c.Chaos.chk_probes_ok = c.Chaos.chk_probes)
             rep.Chaos.rep_checks)
      in
      let problems =
        if Chaos.report_ok rep then []
        else
          List.concat_map (fun c -> c.Chaos.chk_violations) rep.Chaos.rep_checks
          @ [ "report not ok" ]
      in
      (applied, checks_ok, List.length rep.Chaos.rep_checks, problems)
    end
  in
  let (applied, checks_ok, checks, problems), work_ns = timed work in
  let actions = List.length plan in
  let vd = V.digest_of_report (V.run fab) in
  { fab; setup_ns; work_ns; verify_digest = Some vd;
    outcome =
      { attempted = actions + checks;
        failed = (actions - applied) + (checks - checks_ok);
        problems =
          problems
          @ (if applied = actions then []
             else [ Printf.sprintf "%d actions not applied" (actions - applied) ])
          @ if checks > 0 then [] else [ "no quiescent check ran" ] } }

(* One run of [workload] with the given seed. A traced run returns its
   layer accounting; a plain run's accounting stays empty. *)
let run ?(sizes = bench_sizes) workload ~traced ~seed =
  let acct = Layer.create () in
  let drive, on_create =
    if traced then (traced_drive acct, install_tracing acct) else (plain, ignore)
  in
  let r =
    match workload with
    | Boot -> run_boot sizes drive ~on_create ~seed
    | Traffic -> run_traffic sizes drive ~on_create ~seed
    | Chaos -> run_chaos sizes drive ~traced ~on_create ~seed
  in
  (r, acct)
