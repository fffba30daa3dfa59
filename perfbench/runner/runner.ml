(* The benchmark's in-process runner. Three subcommands:

   - [synth --seed S --rounds R]: the synth-suite workload. Set-up is
     repeated [setups] times; the timed phase runs R rounds of eleven
     tasks (a jobshop instance, the train game, liveness of each train of
     train-gate-4, BRP mcpta at five (N, MAX)). After
     the timed phase every jobshop makespan is checked against a
     brute-force optimum. With [--trace] it also times the per-class
     layers and reads engine counters.
   - [replay]: records fischer-5 states and successor candidates with a
     BFS of its own over [Ta.Zone_graph] (not [Engine.Core]), then times
     the store, DBM, successor and deadlock calls on them.
   - [selftest]: checks the brute-force jobshop solver.

   Each subcommand prints one JSON object on stdout; perfbench/run.py
   reads it. *)

open Quantlib
module J = Obs.Json

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Jobshop: seeded instances and the brute-force reference            *)
(* ------------------------------------------------------------------ *)

let n_jobs = 4
let n_machines = 3
let dur_lo = 1
let dur_hi = 4

(* Four jobs, each visiting the three machines once in a random order,
   with durations uniform in [dur_lo, dur_hi]. *)
let jobshop_instance rng : Priced.Jobshop.instance =
  let job () =
    let order = Array.init n_machines Fun.id in
    for i = n_machines - 1 downto 1 do
      let k = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(k);
      order.(k) <- t
    done;
    Array.to_list
      (Array.map
         (fun m -> (m, dur_lo + Random.State.int rng (dur_hi - dur_lo + 1)))
         order)
  in
  { Priced.Jobshop.machines = n_machines; jobs = List.init n_jobs (fun _ -> job ()) }

(* Minimal makespan by enumerating every interleaving of the jobs'
   operation sequences, placing each operation at the earliest time its
   job and its machine are both free. Every semi-active schedule arises
   this way (place the operations in start-time order), and some optimal
   schedule is semi-active, so the minimum over interleavings is the
   optimum. No pruning: the reference stays obviously correct. *)
let brute_force_makespan (inst : Priced.Jobshop.instance) =
  let jobs = Array.of_list (List.map Array.of_list inst.Priced.Jobshop.jobs) in
  let nj = Array.length jobs in
  let total = Array.fold_left (fun acc j -> acc + Array.length j) 0 jobs in
  let next = Array.make nj 0 in
  let job_free = Array.make nj 0 in
  let machine_free = Array.make inst.Priced.Jobshop.machines 0 in
  let best = ref max_int in
  let rec go placed span =
    if placed = total then (if span < !best then best := span)
    else
      for j = 0 to nj - 1 do
        if next.(j) < Array.length jobs.(j) then begin
          let m, d = jobs.(j).(next.(j)) in
          let fin = max job_free.(j) machine_free.(m) + d in
          let saved_j = job_free.(j) and saved_m = machine_free.(m) in
          next.(j) <- next.(j) + 1;
          job_free.(j) <- fin;
          machine_free.(m) <- fin;
          go (placed + 1) (max span fin);
          next.(j) <- next.(j) - 1;
          job_free.(j) <- saved_j;
          machine_free.(m) <- saved_m
        end
      done
  in
  go 0 0;
  !best

(* ------------------------------------------------------------------ *)
(* synth-suite                                                          *)
(* ------------------------------------------------------------------ *)

(* The (N, MAX) instances of the BRP mcpta task. *)
let brp_params = [| (16, 2); (32, 2); (64, 2); (16, 4); (64, 4) |]
let liveness_trains = 4
let setups = 5

type models = {
  instances : Priced.Jobshop.instance array;
  game : Ta.Model.network;
  gate : Ta.Model.network;
  brps : Modest.Brp.t array;
}

let build_models ~seed ~rounds =
  let rng = Random.State.make [| seed |] in
  {
    instances = Array.init rounds (fun _ -> jobshop_instance rng);
    game = Games.Train_game.make ~n_trains:2 ();
    gate = Ta.Train_gate.make ~n_trains:liveness_trains;
    brps =
      Array.map
        (fun (n, max_retrans) -> Modest.Brp.make ~n ~max_retrans ())
        brp_params;
  }

let jobshop_task inst =
  let r, s = timed (fun () -> Priced.Jobshop.optimal inst) in
  let makespan = match r with Some sch -> sch.Priced.Jobshop.makespan | None -> -1 in
  (s, [ ("kind", J.Str "jobshop"); ("makespan", J.Int makespan) ])

let game_task net =
  let safe = Games.Train_game.safe net in
  let sol, solve_s = timed (fun () -> Games.solve net (Games.Safety safe)) in
  let closed, closed_s = timed (fun () -> Games.closed_loop_safe sol ~safe) in
  ( solve_s +. closed_s,
    [
      ("kind", J.Str "game");
      ("ok", J.Bool (sol.Games.initial_winning && closed));
      ("solve_ms", J.Float (solve_s *. 1000.));
      ("closed_loop_ms", J.Float (closed_s *. 1000.));
    ] )

let liveness_task net train =
  let r, s = timed (fun () -> Ta.Checker.check net (Ta.Train_gate.liveness net train)) in
  (s, [ ("kind", J.Str "liveness"); ("ok", J.Bool r.Ta.Checker.holds) ])

let mcpta_task (brp : Modest.Brp.t) =
  let r, s = timed (fun () -> Modest.Brp.run_mcpta brp) in
  ( s,
    [
      ("kind", J.Str "mcpta");
      ("n", J.Int brp.Modest.Brp.n);
      ("max", J.Int brp.Modest.Brp.max_retrans);
      ("ta1", J.Bool r.Modest.Brp.mc_ta1);
      ("ta2", J.Bool r.Modest.Brp.mc_ta2);
      ("pa", J.Float r.Modest.Brp.mc_pa);
      ("p1", J.Float r.Modest.Brp.mc_p1);
      ("p2", J.Float r.Modest.Brp.mc_p2);
    ] )

let task_json (s, fields) = J.Obj (("ms", J.Float (s *. 1000.)) :: fields)

let synth ~seed ~rounds ~trace =
  let setup_s =
    List.init setups (fun _ ->
        snd
          (timed (fun () ->
               let m = build_models ~seed ~rounds in
               ignore (mcpta_task m.brps.(0));
               m)))
  in
  let m = build_models ~seed ~rounds in
  (* Every round runs the same task list but for its jobshop instance,
     so rounds are alike and their median is a steady figure. *)
  let round_json =
    List.init rounds (fun r ->
        let cpu0 = cpu_s () in
        let tasks, s =
          timed (fun () ->
              (jobshop_task m.instances.(r) :: game_task m.game
               :: List.init liveness_trains (liveness_task m.gate))
              @ Array.to_list (Array.map mcpta_task m.brps))
        in
        J.Obj
          [
            ("ms", J.Float (s *. 1000.));
            ("cpu_s", J.Float (cpu_s () -. cpu0));
            ("tasks", J.Arr (List.map task_json tasks));
          ])
  in
  let rss = peak_rss_mb () in
  let reference = Array.map brute_force_makespan m.instances in
  let layers =
    if not trace then []
    else begin
      let graph = Games.Digital.explore m.game in
      let explored =
        Array.fold_left
          (fun e inst ->
            let net, target = Priced.Jobshop.network inst in
            match Priced.min_time_reach net ~target with
            | Some o -> e + o.Priced.explored
            | None -> e)
          0 m.instances
      in
      [
        ("graph_states", J.Int (Array.length graph.Games.Digital.states));
        ("cora_explored", J.Int explored);
      ]
    end
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("setup_s", J.Arr (List.map (fun s -> J.Float s) setup_s));
             ("peak_rss_mb", J.Float rss);
             ("rounds", J.Arr round_json);
             ("brute_force", J.Arr (Array.to_list (Array.map (fun x -> J.Int x) reference)));
           ]
          @ layers)))

(* ------------------------------------------------------------------ *)
(* replay                                                               *)
(* ------------------------------------------------------------------ *)

let per_op_ns ~reps xs f =
  let n = Array.length xs in
  let t0 = now () in
  for _ = 1 to reps do
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f i xs.(i)))
    done
  done;
  (now () -. t0) *. 1e9 /. float_of_int (reps * n)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* The n of the fischer-5 check in perfbench/run.py, which checks that
   this BFS visits as many states as that check. *)
let replay_n = 5

let replay () =
  let net = Ta.Fischer.make ~n:replay_n () in
  let lower, upper = Ta.Prop.merge_lu net Ta.Prop.True in
  let extra = Zones.Dbm.Extra_lu { lower; upper } in
  let spec = Ta.Zone_graph.codec net in
  let key st = Ta.Zone_graph.pack spec st in
  let zone (st : Ta.Zone_graph.state) = st.Ta.Zone_graph.zone in
  let fresh () = Engine.Store.subsume ~key ~zone () in
  (* Record: breadth-first, every successor offered to a subsumption
     store in generation order. *)
  let store = fresh () in
  let init = Ta.Zone_graph.initial net ~extra in
  let states = ref [] and cands = ref [ init ] and ids = ref 1 in
  let queue = Queue.create () in
  ignore (store.Engine.Store.insert init ~id:0);
  Queue.add init queue;
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    states := st :: !states;
    List.iter
      (fun (_, s') ->
        cands := s' :: !cands;
        match store.Engine.Store.insert s' ~id:!ids with
        | Engine.Store.Added _ ->
          incr ids;
          Queue.add s' queue
        | Engine.Store.Dup _ | Engine.Store.Covered -> ())
      (Ta.Zone_graph.successors net ~extra st)
  done;
  let states = Array.of_list (List.rev !states) in
  let cands = Array.of_list (List.rev !cands) in
  let intern_size = Zones.Dbm.intern_size () in
  (* Store: replay the candidate stream into fresh stores. *)
  let replay_s =
    median
      (List.init 3 (fun _ ->
           let s = fresh () in
           snd
             (timed (fun () ->
                  Array.iteri (fun i c -> ignore (s.Engine.Store.insert c ~id:i)) cands))))
  in
  let succ_us =
    1e-3 *. per_op_ns ~reps:1 states (fun _ st -> Ta.Zone_graph.successors net ~extra st)
  in
  let dead_us = 1e-3 *. per_op_ns ~reps:1 states (fun _ st -> Ta.Checker.deadlocked net st) in
  let zones = Array.map (fun st -> (zone st :> Zones.Dbm.t)) states in
  let nz = Array.length zones in
  let reps = 10 in
  let bound = Zones.Bound.le 2 in
  let ups = Array.map Zones.Dbm.up zones in
  let ops =
    [
      ("subset", per_op_ns ~reps zones (fun i z -> Zones.Dbm.subset z zones.((i + 1) mod nz)));
      ("up", per_op_ns ~reps zones (fun _ z -> Zones.Dbm.up z));
      ("reset", per_op_ns ~reps zones (fun _ z -> Zones.Dbm.reset z 1 0));
      ("constrain", per_op_ns ~reps zones (fun _ z -> Zones.Dbm.constrain z 1 0 bound));
      ("extrapolate_lu", per_op_ns ~reps zones (fun _ z -> Zones.Dbm.extrapolate_lu z ~lower ~upper));
      ("seal", per_op_ns ~reps:1 ups (fun _ z -> Zones.Dbm.seal ~extra z));
    ]
  in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("states", J.Int (Array.length states));
             ("candidates", J.Int (Array.length cands));
             ("intern_size", J.Int intern_size);
             ("replay_inserts_per_s", J.Float (float_of_int (Array.length cands) /. replay_s));
             ("successors_us", J.Float succ_us);
             ("deadlocked_us", J.Float dead_us);
           ]
          @ List.map (fun (name, ns) -> (name ^ "_ns", J.Float ns)) ops)))

(* ------------------------------------------------------------------ *)
(* selftest                                                             *)
(* ------------------------------------------------------------------ *)

let selftest () =
  let failures = ref 0 in
  let expect name got want =
    if got <> want then begin
      incr failures;
      Printf.printf "FAIL %s: got %d, want %d\n" name got want
    end
    else Printf.printf "ok   %s\n" name
  in
  let inst jobs = { Priced.Jobshop.machines = 2; jobs } in
  (* Hand-solved instances. *)
  expect "one job runs its tasks back to back"
    (brute_force_makespan (inst [ [ (0, 3); (1, 2) ] ])) 5;
  expect "two jobs share one machine"
    (brute_force_makespan (inst [ [ (0, 2) ]; [ (0, 3) ] ])) 5;
  expect "crossed routes meet the load bound"
    (brute_force_makespan (inst [ [ (0, 2); (1, 2) ]; [ (1, 3); (0, 1) ] ])) 5;
  (* M1 cannot start before time 1 and must run 3 + 3: optimum 7, while
     the load bound says 6. *)
  expect "same route, optimum above the load bound"
    (brute_force_makespan (inst [ [ (0, 1); (1, 3) ]; [ (0, 1); (1, 3) ] ])) 7;
  (* Seeded instances of the workload's shape: never below the
     library's admissible bound, and equal to the library's optimum. *)
  let rng = Random.State.make [| 7 |] in
  for i = 1 to 3 do
    let inst = jobshop_instance rng in
    let bf = brute_force_makespan inst in
    let lb = Priced.Jobshop.makespan_lower_bound inst in
    expect (Printf.sprintf "random %d: at least the lower bound" i) (if bf >= lb then 1 else 0) 1;
    let opt =
      match Priced.Jobshop.optimal inst with Some s -> s.Priced.Jobshop.makespan | None -> -1
    in
    expect (Printf.sprintf "random %d: equals Jobshop.optimal" i) bf opt
  done;
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> opt name tl
    | [] -> None
  in
  let int_opt name default =
    match opt name args with Some v -> int_of_string v | None -> default
  in
  match args with
  | "synth" :: _ ->
    synth ~seed:(int_opt "--seed" 1) ~rounds:(int_opt "--rounds" 1)
      ~trace:(List.mem "--trace" args)
  | [ "replay" ] -> replay ()
  | "selftest" :: _ -> selftest ()
  | _ ->
    prerr_endline "usage: runner (synth --seed S --rounds R [--trace] | replay | selftest)";
    exit 2
