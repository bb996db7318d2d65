(* One run of one benchmark workload, printed as a single JSON line.

     bench.exe WORKLOAD --seed N --mode plain|traced

   [plain] times set-up and work with no tracing and reads the
   deterministic counters afterwards; [traced] repeats the same
   simulation event by event and charges wall time to layers. perfbench/run.py
   runs both modes in separate processes, takes medians and checks that
   the two reproduce the same control digest. *)

open Perfbench
module F = Portland.Fabric
module J = Obs.Json

let secs ns = float_of_int ns /. 1e9

(* A fixed pure-CPU loop, timed before the workload: it tells a slow host
   from a slow program when two runs disagree. *)
let host_probe_s () =
  let t0 = Layer.now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 50_000_000 do
    x := (!x * 0x5DEECE66D + 11) land 0xFFFF_FFFF_FFFF
  done;
  ignore (Sys.opaque_identity !x);
  secs (Layer.now_ns () - t0)

let sum_agents fab f = List.fold_left (fun acc a -> acc + f a) 0 (F.agents fab)

(* Deterministic counts, read after a plain run. *)
let counts fab =
  let fm = Portland.Fabric_manager.counters (F.fabric_manager fab) in
  let ctrl = F.ctrl fab in
  let dp a = Switchfab.Dataplane.stats (Portland.Switch_agent.dataplane a) in
  let net = Switchfab.Net.total_counters (F.net fab) in
  let gc = Gc.quick_stat () in
  let word = float_of_int (Sys.word_size / 8) in
  [ ("fabric_manager.ctrl_msgs", Portland.Ctrl.to_fm_count ctrl);
    ("fabric_manager.mcast_recomputes", fm.Portland.Fabric_manager.mcast_recomputes);
    ("fabric_manager.fault_broadcasts", fm.Portland.Fabric_manager.fault_broadcasts);
    ("fabric_manager.reports", fm.Portland.Fabric_manager.reports);
    ("switch_agent.ctrl_msgs", Portland.Ctrl.to_switch_count ctrl);
    ( "switch_agent.table_recomputes",
      sum_agents fab (fun a ->
          (Portland.Switch_agent.counters a).Portland.Switch_agent.table_recomputes) );
    ( "switchfab.lookups",
      sum_agents fab (fun a ->
          let s = dp a in
          s.Switchfab.Dataplane.matched + s.Switchfab.Dataplane.missed) );
    ("switchfab.punts", sum_agents fab (fun a -> (dp a).Switchfab.Dataplane.punts));
    ( "switchfab.drops",
      net.Switchfab.Net.queue_drops + net.Switchfab.Net.down_drops + net.Switchfab.Net.loss_drops );
    ("eventsim.events", Eventsim.Engine.events_processed (F.engine fab));
    ("ctrl.to_fm_bytes", Portland.Ctrl.to_fm_bytes ctrl);
    ("ctrl.to_switch_bytes", Portland.Ctrl.to_switch_bytes ctrl);
    ("gc.major_collections", gc.Gc.major_collections) ]
  |> List.map (fun (k, v) -> (k, J.Int v))
  |> List.append
       [ ( "gc.alloc_mb",
           J.Float
             ((gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words) *. word /. 1e6) ) ]

(* Layer times of a traced run, and the event counts only tracing sees. *)
let layer_metrics (a : Layer.acct) ~total_ns =
  let per ns n scale = if n = 0 then 0.0 else float_of_int ns /. float_of_int n /. scale in
  let mean_of layer scale = per (Layer.layer_ns a layer) (Layer.layer_n a layer) scale in
  let kind_mean layer kind scale = let ns, n = Layer.kind a layer kind in per ns n scale in
  let layer_s l = secs (Layer.layer_ns a l) in
  let attributed = Layer.attributed_ns a in
  let times =
    [ ("fabric_manager.neighbor_report_us", kind_mean Layer.Fabric_manager "Neighbor_report" 1e3);
      ("fabric_manager.propose_position_us", kind_mean Layer.Fabric_manager "Propose_position" 1e3);
      ("fabric_manager.ctrl_s", layer_s Layer.Fabric_manager);
      ("ldp.ldm_s", layer_s Layer.Ldp);
      ("switch_agent.ctrl_s", layer_s Layer.Switch_agent);
      ("switch_agent.fault_update_us", kind_mean Layer.Switch_agent "Fault_update" 1e3);
      ("switchfab.switch_frame_us", mean_of Layer.Switchfab 1e3);
      ("host_agent.frame_us", mean_of Layer.Host_agent 1e3);
      ("eventsim.ns_per_event", per a.Layer.stepped_ns a.Layer.steps 1.0);
      ("eventsim.timer_s", layer_s Layer.Eventsim);
      ("verify.full_run_ms", kind_mean Layer.Verify "full_run" 1e6);
      ("verify.refresh_ms", kind_mean Layer.Verify "refresh" 1e6);
      ("fabric.create_s", layer_s Layer.Build);
      ("fabric.failure_api_s", layer_s Layer.Failure_api);
      ("fabric.probe_s", layer_s Layer.Probe);
      ( "trace.unattributed_pct",
        100.0 *. float_of_int (total_ns - attributed) /. float_of_int total_ns ) ]
  in
  let counts =
    [ ("ldp.ldm_frames", Layer.layer_n a Layer.Ldp);
      ("switchfab.switch_frames", Layer.layer_n a Layer.Switchfab);
      ("host_agent.frames", Layer.layer_n a Layer.Host_agent);
      ("verify.full_runs", snd (Layer.kind a Layer.Verify "full_run"));
      ("verify.refreshes", snd (Layer.kind a Layer.Verify "refresh")) ]
  in
  [ ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) times));
    ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counts)) ]

let () =
  let workload = ref None and seed = ref 1 and mode = ref "plain" in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, "N workload seed");
      ("--mode", Arg.Set_string mode, "plain|traced") ]
    (fun w ->
      match List.assoc_opt w Scenario.workloads with
      | Some wl -> workload := Some wl
      | None -> raise (Arg.Bad ("unknown workload " ^ w)))
    "bench.exe WORKLOAD --seed N --mode plain|traced";
  let workload =
    match !workload with Some w -> w | None -> prerr_endline "bench.exe: no workload"; exit 2
  in
  let traced = match !mode with
    | "plain" -> false
    | "traced" -> true
    | m -> prerr_endline ("bench.exe: unknown mode " ^ m); exit 2
  in
  let probe_s = host_probe_s () in
  let r, acct = Scenario.run workload ~traced ~seed:!seed in
  let o = r.Scenario.outcome in
  let total_ns = r.Scenario.setup_ns + r.Scenario.work_ns in
  let common =
    [ ("mode", J.Str !mode);
      ("seed", J.Int !seed);
      ("host_probe_s", J.Float probe_s);
      ("setup_s", J.Float (secs r.Scenario.setup_ns));
      ("work_s", J.Float (secs r.Scenario.work_ns));
      ("control_digest", J.Str (F.control_digest r.Scenario.fab));
      ( "verify_digest",
        match r.Scenario.verify_digest with Some d -> J.Str d | None -> J.Null );
      ("attempted", J.Int o.Scenario.attempted);
      ("failed", J.Int o.Scenario.failed);
      ("problems", J.List (List.map (fun p -> J.Str p) o.Scenario.problems)) ]
  in
  let specific =
    if traced then
      layer_metrics acct ~total_ns
      @ [ ("unclaimed_tags", J.List (List.map (fun t -> J.Str t) (Layer.unclaimed_tags acct))) ]
    else
      let top = (Gc.quick_stat ()).Gc.top_heap_words in
      [ ("peak_heap_mb", J.Float (float_of_int (top * (Sys.word_size / 8)) /. 1e6));
        ("counts", J.Obj (counts r.Scenario.fab)) ]
  in
  print_endline (J.to_string (J.Obj (common @ specific)))
