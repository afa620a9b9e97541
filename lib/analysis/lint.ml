(* The determinism contract's local rules: constructs banned outright
   wherever they appear under lib/.  Unlike effect taint they need no
   reachability — one use is a finding — and the binaries under bin/
   are out of scope, since they may time themselves and exit.  Seven
   rules are a table of banned identifiers over the call graph's
   references; [mutable-global] and [hot-alloc] read binding
   structure. *)

let in_lib path = Source.contains path "lib/"
let in_raft path = Source.contains path "lib/raft/"

let rules =
  [
    ("wall-clock", "wall-clock read (the DES virtual clock is the only clock)");
    ("global-rng", "global Random state (use seeded Stats.Rng streams)");
    ("obj-magic", "Obj.magic defeats the type system");
    ("poly-compare", "polymorphic compare/hash on message or state values");
    ( "direct-print",
      "direct printing from lib/ (take a formatter or return data; only \
       scenarios/report.ml owns rendering)" );
    ( "stdlib-exit",
      "exit from lib/ (raise or return a result; only bin/ may end the \
       process)" );
    ( "raw-fabric-send",
      "direct Fabric.send from lib/raft (every RPC leaves through \
       Replication.transmit so bulk appends cannot bypass the \
       lane/backpressure policy)" );
    ( "mutable-global",
      "top-level mutable state in lib/raft (protocol state belongs in \
       Server.t)" );
    ( "hot-alloc",
      "allocation inside a [@hot] binding (hot-path functions may not call \
       allocating list/array combinators, Printf/Format, or contain lambda \
       literals)" );
  ]

(* (rule id, path scope, banned identifier) *)
let banned =
  [
    ("wall-clock", in_lib, Effects.wall_clock);
    ("global-rng", in_lib, Effects.global_random);
    ( "obj-magic",
      in_lib,
      function
      | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] -> true | _ -> false
    );
    ( "poly-compare",
      in_lib,
      function
      | [ "Stdlib"; "compare" ]
      | [ "Hashtbl"; "hash" ]
      | [ "Stdlib"; "Hashtbl"; "hash" ] ->
          true
      | _ -> false );
    ( "direct-print",
      (fun path ->
        in_lib path && not (Filename.check_suffix path "scenarios/report.ml")),
      Effects.ambient_print );
    ( "stdlib-exit",
      in_lib,
      function [ "exit" ] | [ "Stdlib"; "exit" ] -> true | _ -> false );
    ( "raw-fabric-send",
      (fun path -> in_raft path && not (Source.contains path "/replication.")),
      function
      | [ "Fabric"; "send" ] | [ "Netsim"; "Fabric"; "send" ] -> true
      | _ -> false );
  ]

let finding ~path ~line ~rule what =
  Finding.v ~path ~line ~rule
    (Printf.sprintf "%s: %s" what (List.assoc rule rules))

(* A bare name that a pattern of the same binding binds — a parameter,
   a record pun, a local [let] — is that local, not the Stdlib value:
   [let pun exit = { exit }] does not end the process. *)
let banned_findings (cg : Callgraph.t) =
  List.concat_map
    (fun (v : Callgraph.value) ->
      List.concat_map
        (fun (parts, line) ->
          match parts with
          | [ name ] when List.mem name v.vlocals -> []
          | _ ->
              List.filter_map
                (fun (rule, scope, bans) ->
                  if scope v.vpath && bans parts then
                    Some
                      (finding ~path:v.vpath ~line ~rule
                         ("`" ^ String.concat "." parts ^ "`"))
                  else None)
                banned)
        v.vrefs)
    cg.values

(* Structure-level bindings, including those of nested modules, but not
   the [let ... in] locals inside expressions. *)
let structure_bindings str =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding = (fun _ vb -> acc := vb :: !acc);
      expr = (fun _ _ -> ());
    }
  in
  it.Ast_iterator.structure it str;
  List.rev !acc

let names (vb : Parsetree.value_binding) =
  String.concat ", " (Callgraph.pattern_names vb.pvb_pat)

let rec allocation (e : Parsetree.expression) =
  match e.pexp_desc with
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident lid; _ }, _) -> (
      match Source.flatten_longident lid.Asttypes.txt with
      | Some parts when Shared_state.mutable_ctor parts ->
          Some (String.concat "." parts)
      | Some _ | None -> None)
  | Parsetree.Pexp_constraint (e, _) -> allocation e
  | _ -> None

let mutable_global_findings path (vb : Parsetree.value_binding) =
  match allocation vb.pvb_expr with
  | Some ctor when in_raft path ->
      [
        finding ~path ~line:(Source.line_of_loc vb.pvb_loc)
          ~rule:"mutable-global"
          (Printf.sprintf "`%s = %s ...`" (names vb) ctor);
      ]
  | Some _ | None -> []

let hot_banned parts =
  match parts with
  | [
   "List";
   ( "map" | "mapi" | "rev_map" | "concat_map" | "filter_map" | "filter"
   | "append" | "concat" );
  ]
  | [ "Array"; ("append" | "concat" | "of_list" | "to_list") ]
  | ("Printf" | "Format") :: _ :: _ ->
      true
  | _ -> false

(* The binding's own parameter chain — [fun] parameters, locally
   abstract types, a return-type constraint and a trailing [function] —
   is the function being defined, not a closure allocated per call.
   Everything below it is checked: any [fun]/[function] there is a
   lambda literal, and default-argument expressions count too. *)
let hot_alloc_findings path (vb : Parsetree.value_binding) =
  let acc = ref [] in
  let report (e : Parsetree.expression) what =
    acc :=
      finding ~path ~line:(Source.line_of_loc e.pexp_loc) ~rule:"hot-alloc"
        (Printf.sprintf "%s in `%s`" what (names vb))
      :: !acc
  in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
        report e "lambda literal"
    | Parsetree.Pexp_ident lid -> (
        match Source.flatten_longident lid.Asttypes.txt with
        | Some parts when hot_banned parts ->
            report e ("`" ^ String.concat "." parts ^ "`")
        | Some _ | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  let rec chain (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_fun (_, default, _, body) ->
        Option.iter (it.Ast_iterator.expr it) default;
        chain body
    | Parsetree.Pexp_newtype (_, body) | Parsetree.Pexp_constraint (body, _) ->
        chain body
    | Parsetree.Pexp_function cases -> List.iter (it.Ast_iterator.case it) cases
    | _ -> it.Ast_iterator.expr it e
  in
  if
    List.exists
      (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt "hot")
      vb.pvb_attributes
  then chain vb.pvb_expr;
  List.rev !acc

let findings (cg : Callgraph.t) (sources : Source.t list) =
  banned_findings cg
  @ List.concat_map
      (fun (s : Source.t) ->
        match s.kind with
        | Source.Impl str when in_lib s.path ->
            List.concat_map
              (fun vb ->
                mutable_global_findings s.path vb @ hot_alloc_findings s.path vb)
              (structure_bindings str)
        | Source.Impl _ | Source.Intf _ | Source.Broken _ -> [])
      sources
