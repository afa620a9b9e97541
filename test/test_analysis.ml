(* Unit tests for the AST determinism analyzer (lib/analysis): call
   graph construction and resolution, interprocedural effect taint,
   cross-domain shared-state detection, protocol-match exhaustiveness,
   the local banned-construct rules, parse-error surfacing and the
   allowlist. *)

module A = Analysis
module F = Analysis.Finding
module Cg = Analysis.Callgraph

let file path content = { A.path; content }
let analyze ?config files = A.analyze ?config files
let with_rule rule fs = List.filter (fun (f : F.t) -> f.rule = rule) fs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let src lib path content = A.Source.parse ~library:lib ~path content

(* {2 Call graph} *)

let test_callgraph_build () =
  let cg =
    Cg.build [ src "Raft" "lib/raft/a.ml" "let f x = x + 1\nlet g y = f y" ]
  in
  let g =
    match Cg.lookup cg ~path:"lib/raft/a.ml" ~name:"g" with
    | Some v -> v
    | None -> Alcotest.fail "g not found"
  in
  Alcotest.(check int) "g line" 2 g.Cg.vline;
  Alcotest.(check string) "display" "Raft.A.g" (Cg.display g);
  match Cg.callees cg g with
  | [ (callee, line) ] ->
      Alcotest.(check string) "edge g->f" "f" callee.Cg.vname;
      Alcotest.(check int) "edge line" 2 line
  | edges -> Alcotest.failf "expected one edge, got %d" (List.length edges)

let test_callgraph_resolution () =
  let cg =
    Cg.build
      [
        src "Stats" "lib/stats/rng.ml" "let fresh () = 0";
        src "Raft" "lib/raft/a.ml" "let f x = x";
        src "Raft" "lib/raft/b.ml" "let h () = A.f (Stats.Rng.fresh ())";
      ]
  in
  let resolve parts =
    Cg.resolve cg ~path:"lib/raft/b.ml" ~lib:"Raft" parts
  in
  (match resolve [ "A"; "f" ] with
  | Some v -> Alcotest.(check string) "same-library" "lib/raft/a.ml" v.Cg.vpath
  | None -> Alcotest.fail "A.f unresolved");
  (match resolve [ "Stats"; "Rng"; "fresh" ] with
  | Some v ->
      Alcotest.(check string) "library-qualified" "lib/stats/rng.ml" v.Cg.vpath
  | None -> Alcotest.fail "Stats.Rng.fresh unresolved");
  Alcotest.(check bool) "locals stay unresolved" true
    (resolve [ "nonexistent" ] = None)

(* {2 Effect taint} *)

(* The wrappers live OUTSIDE the entry directories, so the only way to
   reach the sink is the two-hop chain from the lib/raft entry point. *)
let taint_files =
  [
    file "lib/raft/entry.ml" "let run () = Stats.Util.step ()";
    file "lib/stats/util.ml"
      "let step () = clock ()\nlet clock () = Unix.gettimeofday ()";
  ]

let test_taint_two_hops () =
  match with_rule "effect-taint" (analyze taint_files) with
  | [ f ] ->
      Alcotest.(check string) "points at the effectful file" "lib/stats/util.ml"
        f.F.path;
      Alcotest.(check int) "line of the sink" 2 f.F.line;
      (* the full chain through both wrappers must be in the message *)
      List.iter
        (fun part ->
          Alcotest.(check bool) ("chain mentions " ^ part) true
            (contains f.F.message part))
        [ "run"; "step"; "clock"; "Unix.gettimeofday" ]
  | fs -> Alcotest.failf "expected one taint finding, got %d" (List.length fs)

let test_taint_requires_entry_reachability () =
  (* Same sink, but in a module no entry point reaches: clean. *)
  let fs =
    analyze [ file "lib/telemetry/t.ml" "let now () = Unix.gettimeofday ()" ]
  in
  Alcotest.(check int) "no findings" 0 (List.length (with_rule "effect-taint" fs))

let test_taint_forensics_entry () =
  (* The forensics modules are taint roots themselves: an ambient
     effect reachable from one fires without any lib/raft caller... *)
  let fs =
    analyze
      [
        file "lib/telemetry/forensics.ml"
          "let stamp () = Unix.gettimeofday ()";
      ]
  in
  Alcotest.(check int) "forensics is an entry dir" 1
    (List.length (with_rule "effect-taint" fs));
  let fs =
    analyze
      [ file "lib/telemetry/recorder.ml" "let jitter () = Random.float 1." ]
  in
  Alcotest.(check int) "recorder is an entry dir" 1
    (List.length (with_rule "effect-taint" fs));
  (* ...but the exporters are not: chrome_trace writing a file when
     asked stays legitimate. *)
  let fs =
    analyze
      [
        file "lib/telemetry/chrome_trace.ml"
          "let write path = open_out path";
      ]
  in
  Alcotest.(check int) "chrome_trace stays exempt" 0
    (List.length (with_rule "effect-taint" fs))

let test_taint_allowlist () =
  let config =
    A.Driver.default_config ~allow:[ ("util.ml", "effect-taint") ] ()
  in
  let fs = with_rule "effect-taint" (analyze ~config taint_files) in
  Alcotest.(check int) "suppressed" 0 (List.length fs)

(* {2 Shared state} *)

let shared_body =
  "let tbl = Hashtbl.create 4\n\
   type c = { mutable n : int }\n\
   let cell = { n = 0 }\n\
   let work x = Hashtbl.length tbl + cell.n + x\n"

let test_shared_state_fires () =
  let fs =
    analyze
      [ file "lib/raft/s.ml" (shared_body ^ "let run p xs = Pool.map p work xs") ]
  in
  let lines =
    with_rule "shared-state" fs |> List.map (fun (f : F.t) -> f.line)
  in
  Alcotest.(check (list int)) "hashtbl and mutable record flagged" [ 1; 3 ] lines

let test_shared_state_needs_spawn () =
  (* Identical mutable state, but nothing hands the module to a pool. *)
  let fs = analyze [ file "lib/raft/s.ml" shared_body ] in
  Alcotest.(check int) "clean without a spawn site" 0
    (List.length (with_rule "shared-state" fs))

(* {2 Protocol exhaustiveness} *)

let test_protocol_wildcard_fires () =
  let fs =
    analyze
      [
        file "lib/raft/m.ml"
          "type m = A | B [@@protocol]\nlet f = function A -> 0 | _ -> 1";
      ]
  in
  match with_rule "protocol-wildcard" fs with
  | [ f ] -> Alcotest.(check int) "line" 2 f.F.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_protocol_wildcard_negative () =
  let fs =
    analyze
      [
        file "lib/raft/m.ml"
          ("type m = A | B [@@protocol]\n"
          ^ "let exhaustive = function A -> 0 | B -> 1\n"
          ^ "type u = C | D\n"
          ^ "let unmarked = function C -> 0 | _ -> 1");
      ]
  in
  Alcotest.(check int) "no findings" 0
    (List.length (with_rule "protocol-wildcard" fs))

(* {2 Local rules} *)

(* One source per rule: (rule, path, content, line of the hit). *)
let lint_cases =
  [
    ("wall-clock", "lib/stats/w.ml", "let pad = 0\nlet now () = Sys.time ()", 2);
    ("global-rng", "lib/stats/r.ml", "let roll () = Random.int 6", 1);
    ("obj-magic", "lib/kvsm/o.ml", "let cast x =\n  Obj.magic x", 2);
    ("poly-compare", "lib/des/p.ml", "let h = 0\nlet b x = Hashtbl.hash x", 2);
    ( "direct-print",
      "lib/kvsm/d.ml",
      "let show x =\n  let s = string_of_int x in\n  print_endline s",
      3 );
    ("stdlib-exit", "lib/core/e.ml", "let bail () =\n  exit 1", 2);
    ("raw-fabric-send", "lib/raft/s.ml", "let ship f m = Fabric.send f m", 1);
    ("mutable-global", "lib/raft/g.ml", "let x = 1\nlet counter = ref x", 2);
    ("hot-alloc", "lib/raft/h.ml", "let[@hot] f xs =\n  List.map succ xs", 2);
  ]

let test_lint_rule (rule, path, content, line) () =
  match with_rule rule (analyze [ file path content ]) with
  | [ f ] -> Alcotest.(check int) (rule ^ " line") line f.F.line
  | fs -> Alcotest.failf "%s: expected one finding, got %d" rule (List.length fs)

(* Every local rule is scoped to lib/ (the binaries may time themselves
   and exit); direct-print spares the report renderer, raw-fabric-send
   the replication seam, and mutable-global applies to lib/raft only. *)
let test_lint_scopes () =
  let local_rules = List.map fst A.Lint.rules in
  let fs =
    analyze
      [
        file "bin/selfcheck.ml"
          "let time f = let t0 = Unix.gettimeofday () in f (); exit 0; t0";
        file "lib/scenarios/report.ml" "let show s = print_endline s";
        file "lib/raft/replication.ml" "let transmit f m = Fabric.send f m";
        file "lib/kvsm/c.ml" "let counter = ref 0";
      ]
  in
  Alcotest.(check (list string)) "no local-rule findings" []
    (List.filter_map
       (fun (f : F.t) ->
         if List.mem f.rule local_rules then Some (F.render f) else None)
       fs)

let test_hot_and_function_clean () =
  (* The shape of [Node.dispatch]/[interpret_all]: the trailing
     [function] is the parameter chain, not a closure. *)
  let fs =
    analyze
      [
        file "lib/raft/n.ml"
          "let[@hot] rec dispatch t e = all t e\n\
           and all t = function\n\
          \  | [] -> ()\n\
          \  | x :: r -> ignore (t + x); all t r\n\
          \  [@@hot]";
      ]
  in
  Alcotest.(check int) "clean" 0 (List.length (with_rule "hot-alloc" fs))

let test_hot_nested_lambda () =
  let fs =
    analyze
      [
        file "lib/raft/p.ml"
          "module Pool = struct\n\
          \  let[@hot] drain q =\n\
          \    Queue.iter (fun m -> ignore m) q\n\
           end";
      ]
  in
  Alcotest.(check (list int)) "lambda inside a submodule's hot binding" [ 3 ]
    (List.map (fun (f : F.t) -> f.line) (with_rule "hot-alloc" fs))

let test_exit_binding_names () =
  let fs =
    analyze
      [
        file "lib/raft/x.ml"
          "type o = { exit : int; label : int }\n\
           let param exit = exit + 1\n\
           let pun exit = { exit; label = 0 }\n\
           let field_pun { exit; _ } = exit\n\
           let local () = let exit = 3 in exit\n\
           let bare () = exit 1\n\
           let qualified exit = Stdlib.exit exit";
      ]
  in
  Alcotest.(check (list int)) "only the real exits" [ 6; 7 ]
    (List.map (fun (f : F.t) -> f.line) (with_rule "stdlib-exit" fs))

(* {2 Parse errors, rendering, allowlist parsing} *)

let test_parse_error () =
  match analyze [ file "lib/raft/broken.ml" "let = (" ] with
  | [ f ] -> Alcotest.(check string) "rule" "parse-error" f.F.rule
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_render () =
  let f = F.v ~path:"lib/x.ml" ~line:3 ~rule:"effect-taint" "msg" in
  Alcotest.(check string) "render" "lib/x.ml:3: [effect-taint] msg" (F.render f)

let test_parse_allow () =
  (match F.parse_allow "# comment\n\nlib/x.ml:effect-taint\n" with
  | Ok allow ->
      Alcotest.(check bool) "suffix match" true
        (F.allowed allow ~path:"lib/x.ml" ~rule:"effect-taint");
      Alcotest.(check bool) "rule must match" false
        (F.allowed allow ~path:"lib/x.ml" ~rule:"shared-state")
  | Error line -> Alcotest.failf "parse_allow failed: %s" line);
  match F.parse_allow "garbage-without-colon" with
  | Ok _ -> Alcotest.fail "malformed entry accepted"
  | Error _ -> ()

let test_stale_allow () =
  let config =
    A.Driver.default_config
      ~allow:
        [ ("lib/stats/w.ml", "wall-clock"); ("lib/stats/rng.ml", "global-rng") ]
      ()
  in
  let findings, stale =
    A.Driver.check ~config
      [ file "lib/stats/w.ml" "let now () = Unix.gettimeofday ()" ]
  in
  Alcotest.(check int) "used entry suppresses" 0 (List.length findings);
  Alcotest.(check (list (pair string string))) "unused entry is stale"
    [ ("lib/stats/rng.ml", "global-rng") ]
    stale

let tests =
  [
    Alcotest.test_case "callgraph-build" `Quick test_callgraph_build;
    Alcotest.test_case "callgraph-resolution" `Quick test_callgraph_resolution;
    Alcotest.test_case "taint-two-hops" `Quick test_taint_two_hops;
    Alcotest.test_case "taint-needs-entry" `Quick
      test_taint_requires_entry_reachability;
    Alcotest.test_case "taint-forensics-entry" `Quick
      test_taint_forensics_entry;
    Alcotest.test_case "taint-allowlist" `Quick test_taint_allowlist;
    Alcotest.test_case "shared-state-fires" `Quick test_shared_state_fires;
    Alcotest.test_case "shared-state-needs-spawn" `Quick
      test_shared_state_needs_spawn;
    Alcotest.test_case "protocol-wildcard" `Quick test_protocol_wildcard_fires;
    Alcotest.test_case "protocol-wildcard-negative" `Quick
      test_protocol_wildcard_negative;
    Alcotest.test_case "parse-error" `Quick test_parse_error;
    Alcotest.test_case "finding-render" `Quick test_render;
    Alcotest.test_case "parse-allow" `Quick test_parse_allow;
    Alcotest.test_case "stale-allow" `Quick test_stale_allow;
  ]
  @ List.map
      (fun ((rule, _, _, _) as case) ->
        Alcotest.test_case ("lint: " ^ rule) `Quick (test_lint_rule case))
      lint_cases
  @ [
      Alcotest.test_case "lint: lib/ scopes" `Quick test_lint_scopes;
      Alcotest.test_case "lint: hot and-function clean" `Quick
        test_hot_and_function_clean;
      Alcotest.test_case "lint: hot nested lambda" `Quick
        test_hot_nested_lambda;
      Alcotest.test_case "lint: exit binding names" `Quick
        test_exit_binding_names;
    ]
