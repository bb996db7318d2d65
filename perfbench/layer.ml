(* Attribution of simulator wall time to the PortLand layers.

   A traced run installs an identity engine interceptor (every tagged
   event keeps its natural time, so the simulation is unchanged) plus a
   frame-delivery tagger, then drives the engine one event at a time.
   The tag of the event that fired names the layer its handler belongs
   to; untagged events are the engine's own timers. Calls the benchmark
   makes itself (verifier, failure API, probes, construction) are timed
   around the call. *)

type t =
  | Fabric_manager  (* control messages delivered to the FM *)
  | Switch_agent    (* control messages delivered to a switch agent *)
  | Ldp             (* LDM frames *)
  | Switchfab       (* ARP/IPv4 frames delivered to a switch dataplane *)
  | Host_agent      (* ARP/IPv4 frames delivered to a host *)
  | Eventsim        (* untagged events: protocol and traffic timers *)
  | Verify          (* Verify.run and Verify.Incremental calls *)
  | Failure_api     (* the Fabric failure API *)
  | Probe           (* trace_route, convergence and integrity checks *)
  | Build           (* Fabric.create *)

let all =
  [ Fabric_manager; Switch_agent; Ldp; Switchfab; Host_agent; Eventsim; Verify; Failure_api;
    Probe; Build ]

let name = function
  | Fabric_manager -> "fabric_manager"
  | Switch_agent -> "switch_agent"
  | Ldp -> "ldp"
  | Switchfab -> "switchfab"
  | Host_agent -> "host_agent"
  | Eventsim -> "eventsim"
  | Verify -> "verify"
  | Failure_api -> "failure_api"
  | Probe -> "probe"
  | Build -> "build"

(* ---------------- tags ---------------- *)

(* Frame tags are constants, so the hot path matches them by physical
   equality before falling back to parsing. Bpdu and Raw frames belong to
   the baseline fabrics, never to PortLand: they classify to no layer. *)
let tag_ldm = "frame:ldm"
let tag_arp_switch = "frame:arp>switch"
let tag_ipv4_switch = "frame:ipv4>switch"
let tag_arp_host = "frame:arp>host"
let tag_ipv4_host = "frame:ipv4>host"

let frame_classes =
  [ (tag_ldm, (Ldp, "ldm"));
    (tag_arp_switch, (Switchfab, "arp"));
    (tag_ipv4_switch, (Switchfab, "ipv4"));
    (tag_arp_host, (Host_agent, "arp"));
    (tag_ipv4_host, (Host_agent, "ipv4")) ]

let frame_tag ~to_host (f : Netcore.Eth.t) =
  match f.Netcore.Eth.payload with
  | Netcore.Eth.Ldp _ -> tag_ldm
  | Netcore.Eth.Arp _ -> if to_host then tag_arp_host else tag_arp_switch
  | Netcore.Eth.Ipv4 _ -> if to_host then tag_ipv4_host else tag_ipv4_switch
  | Netcore.Eth.Bpdu _ -> "frame:bpdu"
  | Netcore.Eth.Raw _ -> "frame:raw"

(* The message kind of a control descriptor ([Msg.describe_to_fm] /
   [Msg.describe_to_switch]) is its constructor name, before any '{'. *)
let kind_after s i =
  let d = String.sub s i (String.length s - i) in
  match String.index_opt d '{' with Some j -> String.sub d 0 j | None -> d

(* Ctrl deliveries are tagged "ctrl:fm<-<switch>:<descr>" and
   "ctrl:sw<switch><-fm:<descr>" by [Portland.Ctrl]. *)
let classify tag =
  match List.assoc_opt tag frame_classes with
  | Some c -> Some c
  | None ->
    let layer =
      if String.starts_with ~prefix:"ctrl:fm<-" tag then Some Fabric_manager
      else if String.starts_with ~prefix:"ctrl:sw" tag then Some Switch_agent
      else None
    in
    (match (layer, String.index_from_opt tag 5 ':') with
     | Some l, Some i -> Some (l, kind_after tag (i + 1))
     | _ -> None)

(* ---------------- accounting ---------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type cell = { layer : t option; kind : string; mutable ns : int; mutable n : int }
(* [layer = None]: a tag no layer claims — its time counts as unattributed. *)

type acct = {
  cells : (t option * string, cell) Hashtbl.t;
  fast : (string * cell) array;
  timer : cell;
  mutable cur : cell;
  mutable stepped_ns : int;
  mutable steps : int;
}

let cell_in cells layer kind =
  match Hashtbl.find_opt cells (layer, kind) with
  | Some c -> c
  | None ->
    let c = { layer; kind; ns = 0; n = 0 } in
    Hashtbl.replace cells (layer, kind) c;
    c

let cell a = cell_in a.cells

let create () =
  let cells = Hashtbl.create 64 in
  let timer = cell_in cells (Some Eventsim) "timer" in
  let fast =
    Array.of_list (List.map (fun (tag, (l, k)) -> (tag, cell_in cells (Some l) k)) frame_classes)
  in
  { cells; fast; timer; cur = timer; stepped_ns = 0; steps = 0 }

let cell_of_tag a tag =
  let rec go i =
    if i = Array.length a.fast then
      match classify tag with
      | Some (l, k) -> cell a (Some l) k
      | None -> cell a None tag
    else
      let t, c = a.fast.(i) in
      if t == tag then c else go (i + 1)
  in
  go 0

let interceptor a =
  { Eventsim.Engine.on_schedule = (fun ~tag:_ ~now:_ ~due -> due);
    on_fire = (fun ~tag ~time:_ -> a.cur <- cell_of_tag a tag) }

let tagger ~is_host = fun ~src:_ ~dst frame -> Some (frame_tag ~to_host:(is_host dst) frame)

(* Fire one event and charge its wall time to the layer its tag names. *)
let step a engine =
  a.cur <- a.timer;
  let t0 = now_ns () in
  ignore (Eventsim.Engine.step engine);
  let dt = now_ns () - t0 in
  let c = a.cur in
  c.ns <- c.ns + dt;
  c.n <- c.n + 1;
  a.stepped_ns <- a.stepped_ns + dt;
  a.steps <- a.steps + 1

(* Time a call the benchmark makes itself. *)
let time a layer kind f =
  let t0 = now_ns () in
  let r = f () in
  let c = cell a (Some layer) kind in
  c.ns <- c.ns + (now_ns () - t0);
  c.n <- c.n + 1;
  r

let fold a f init = Hashtbl.fold (fun _ c acc -> f c acc) a.cells init

let layer_ns a layer = fold a (fun c acc -> if c.layer = Some layer then acc + c.ns else acc) 0
let layer_n a layer = fold a (fun c acc -> if c.layer = Some layer then acc + c.n else acc) 0

let kind a layer kind =
  match Hashtbl.find_opt a.cells (Some layer, kind) with Some c -> (c.ns, c.n) | None -> (0, 0)

let attributed_ns a = List.fold_left (fun acc l -> acc + layer_ns a l) 0 all

let unclaimed_tags a =
  fold a (fun c acc -> if c.layer = None then c.kind :: acc else acc) [] |> List.sort compare
