(* Tests for the adaptive strategy controller (the paper's future-work
   auto-tuning, Sec. 7): mode transitions, repair-on-switch, and — most
   importantly — correctness regardless of the mode history. *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module A = Lsm_core.Adaptive.Make (Lsm_workload.Tweet.Record) (D)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet
module IntMap = Map.Make (Int)

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(1024 * 128) device

let tw ?(user = 0) ?(at = 1) id =
  { Tweet.id; user_id = user; location = 0; created_at = at; msg_len = 68 }

let mk ?(window = 50) () =
  let env = mk_env () in
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      env
      { D.default_config with strategy = Strategy.validation; mem_budget = 4096 }
  in
  A.create
    ~config:{ A.window; write_heavy = 20.0; query_heavy = 2.0 }
    d

let test_requires_validation () =
  let env = mk_env () in
  let d =
    D.create ~secondaries:[] env
      { D.default_config with strategy = Strategy.eager }
  in
  Alcotest.check_raises "eager base rejected"
    (Invalid_argument "Adaptive.create: dataset must use Validation") (fun () ->
      ignore (A.create d))

let test_switches_to_eager_when_query_heavy () =
  let a = mk () in
  for i = 1 to 30 do
    A.upsert a (tw ~user:i i)
  done;
  Alcotest.(check bool) "starts lazy" true (A.mode a = A.Validation_mode);
  (* Query-dominated window: more queries than updates. *)
  for _ = 1 to 60 do
    ignore (A.query_secondary a ~sec:"user_id" ~lo:0 ~hi:5 ())
  done;
  Alcotest.(check bool) "switched to eager" true (A.mode a = A.Eager_mode);
  Alcotest.(check bool) "at least one switch" true (A.switches a >= 1)

let test_switches_back_when_write_heavy () =
  let a = mk () in
  for _ = 1 to 60 do
    ignore (A.query_secondary a ~sec:"user_id" ~lo:0 ~hi:5 ())
  done;
  Alcotest.(check bool) "eager" true (A.mode a = A.Eager_mode);
  for i = 1 to 200 do
    A.upsert a (tw ~user:i (i mod 40))
  done;
  Alcotest.(check bool) "back to validation" true (A.mode a = A.Validation_mode)

type aop = AUp of int * int | ADel of int | AQuery of int * int

let aop_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k u -> AUp (k, u)) (int_range 1 30) (int_range 0 60));
        (1, map (fun k -> ADel k) (int_range 1 30));
        (3, map2 (fun a b -> AQuery (min a b, max a b)) (int_range 0 60) (int_range 0 60));
      ])

let prop_adaptive_matches_model =
  qtest ~count:60 "adaptive answers = model across mode switches"
    QCheck2.Gen.(list_size (int_range 20 400) aop_gen)
    (fun ops ->
      (* Tiny window so switches happen constantly. *)
      let a = mk ~window:7 () in
      let model = ref IntMap.empty in
      List.for_all
        (fun op ->
          match op with
          | AUp (k, u) ->
              A.upsert a (tw ~user:u k);
              model := IntMap.add k u !model;
              true
          | ADel k ->
              A.delete a ~pk:k;
              model := IntMap.remove k !model;
              true
          | AQuery (lo, hi) ->
              let got =
                A.query_secondary a ~sec:"user_id" ~lo ~hi ()
                |> List.map Tweet.primary_key |> List.sort compare
              in
              let want =
                IntMap.fold
                  (fun k u acc -> if u >= lo && u <= hi then k :: acc else acc)
                  !model []
                |> List.sort compare
              in
              got = want)
        ops)

let test_switch_repairs_first () =
  let a = mk () in
  let d = A.dataset a in
  (* Create obsolete entries under validation mode... *)
  for i = 1 to 30 do
    A.upsert a (tw ~user:1 i)
  done;
  D.flush_now d;
  for i = 1 to 30 do
    A.upsert a (tw ~user:2 i)
  done;
  D.flush_now d;
  let repairs_before = (D.stats d).D.n_repairs in
  (* ...then force a switch to eager via a query-heavy window. *)
  for _ = 1 to 60 do
    ignore (A.query_secondary a ~sec:"user_id" ~lo:50 ~hi:60 ())
  done;
  Alcotest.(check bool) "eager now" true (A.mode a = A.Eager_mode);
  Alcotest.(check bool) "repair ran on switch" true
    ((D.stats d).D.n_repairs > repairs_before);
  (* Assume-valid queries must be clean. *)
  let got =
    A.query_secondary a ~sec:"user_id" ~lo:1 ~hi:1 ()
    |> List.map Tweet.primary_key
  in
  Alcotest.(check (list int)) "no stale entries" [] got

let test_set_eager_writes () =
  List.iter
    (fun strategy ->
      let d =
        D.create ~secondaries:[] (mk_env ())
          { D.default_config with strategy }
      in
      Alcotest.(check bool)
        (Strategy.name strategy ^ " rejected")
        true
        (match D.set_eager_writes d true with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ Strategy.eager; Strategy.mutable_bitmap ];
  let d = A.dataset (mk ()) in
  D.set_auto_maintenance d false;
  D.upsert d (tw ~user:3 1);
  D.flush_now d;
  let repairs () = (D.stats d).D.n_repairs in
  let before = repairs () in
  D.set_eager_writes d true;
  let after_first = repairs () in
  Alcotest.(check bool) "switching on repairs" true (after_first > before);
  D.set_eager_writes d true;
  Alcotest.(check int) "switching on again does not" after_first (repairs ());
  D.upsert d (tw ~user:4 1);
  match D.Sec.mem_find (D.secondary d "user_id").D.tree 3 1 with
  | Some e ->
      let s = (D.secondary d "user_id").D.tree in
      Alcotest.(check bool) "anti-matter" false (Lsm_core.Dataset.Entry.is_put e);
      Alcotest.(check int) "at the upsert's timestamp" (D.now_ts d) (D.Sec.mem_ts s)
  | None -> Alcotest.fail "no anti-matter for the on-disk version"

let () =
  Alcotest.run "lsm_adaptive"
    [
      ( "adaptive",
        [
          Alcotest.test_case "requires validation base" `Quick
            test_requires_validation;
          Alcotest.test_case "switches to eager" `Quick
            test_switches_to_eager_when_query_heavy;
          Alcotest.test_case "switches back" `Quick
            test_switches_back_when_write_heavy;
          Alcotest.test_case "repairs before eager" `Quick
            test_switch_repairs_first;
          Alcotest.test_case "set_eager_writes" `Quick test_set_eager_writes;
          prop_adaptive_matches_model;
        ] );
    ]
