(* A per-module value-level call graph over the whole source tree.

   Nodes are top-level value bindings (nested modules contribute
   dot-prefixed names, module-initialization code is pooled into a
   per-file "(init)" node); edges come from every identifier a binding's
   body references, resolved against the tree:

   - [helper]              -> a value of the same file
   - [Rng.float]           -> module [Rng] of the same library, else the
                              unique library that has a module [Rng]
   - [Stats.Rng.float]     -> module [Rng] of library [Stats] (the
                              wrapper name disambiguates, e.g. the two
                              [Config] modules in core and raft)
   - [Node_id.Set.add]     -> nested value ["Set.add"] of [node_id.ml]

   Unresolvable references (locals, parameters, stdlib, external
   libraries) simply contribute no edge: the graph over-approximates
   locally (a local binding shadowing a top-level name still counts as a
   reference to the top-level) and under-approximates globally (calls
   through higher-order parameters are invisible), which is the usual
   static-call-graph trade-off and errs on the side of reporting. *)

type value = {
  vpath : string;  (* file the binding lives in *)
  vlib : string;  (* wrapper module name of its library, "" if none *)
  vmod : string;  (* module name, e.g. "Server" *)
  vname : string;  (* "f", "Sub.g", or "(init)" *)
  vline : int;
  vrefs : (string list * int) list;  (* flattened idents in the body *)
  vlocals : string list;  (* names bound by patterns in the binding *)
}

type t = {
  values : value list;  (* in file order, bindings in source order *)
  by_key : (string, value) Hashtbl.t;  (* vpath ^ "#" ^ vname *)
  module_file : (string, string) Hashtbl.t;  (* "Lib.Mod" -> .ml path *)
  mod_paths : (string, string list) Hashtbl.t;  (* "Mod" -> .ml paths *)
  libraries : (string, unit) Hashtbl.t;  (* known wrapper names *)
}

let key ~path ~name = path ^ "#" ^ name
let value_key v = key ~path:v.vpath ~name:v.vname

let display v =
  let lib = if v.vlib = "" || v.vlib = v.vmod then "" else v.vlib ^ "." in
  lib ^ v.vmod ^ "." ^ v.vname

(* {1 AST collection} *)

let collect_idents run =
  let acc = ref [] in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Parsetree.Pexp_ident lid -> (
        match Source.flatten_longident lid.Asttypes.txt with
        | Some parts -> acc := (parts, Source.line_of_loc e.pexp_loc) :: !acc
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  run it;
  List.rev !acc

let idents_of_expr e = collect_idents (fun it -> it.Ast_iterator.expr it e)

let collect_names run =
  let acc = ref [] in
  let pat self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Parsetree.Ppat_var name | Parsetree.Ppat_alias (_, name) ->
        acc := name.Asttypes.txt :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  run it;
  List.rev !acc

let pattern_names p = collect_names (fun it -> it.Ast_iterator.pat it p)

(* {1 Graph construction} *)

let init_name = "(init)"

type builder = {
  mutable bvalues : value list;  (* reversed *)
  bby_key : (string, value) Hashtbl.t;
}

(* [fragment] feeds the binding's AST to an iterator: its identifiers
   become the value's references, its pattern variables its locals. *)
let add_value b ~path ~lib ~modname ~name ~line fragment =
  let refs = collect_idents fragment and locals = collect_names fragment in
  let k = key ~path ~name in
  match Hashtbl.find_opt b.bby_key k with
  | Some existing ->
      (* several [let () = ...] blocks pool into one (init) node *)
      let merged =
        {
          existing with
          vrefs = existing.vrefs @ refs;
          vlocals = existing.vlocals @ locals;
        }
      in
      Hashtbl.replace b.bby_key k merged;
      b.bvalues <-
        merged :: List.filter (fun v -> value_key v <> k) b.bvalues
  | None ->
      let v =
        {
          vpath = path;
          vlib = lib;
          vmod = modname;
          vname = name;
          vline = line;
          vrefs = refs;
          vlocals = locals;
        }
      in
      Hashtbl.replace b.bby_key k v;
      b.bvalues <- v :: b.bvalues

let rec structure_values b ~path ~lib ~modname ~prefix items =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      let line = Source.line_of_loc item.pstr_loc in
      match item.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let names = pattern_names vb.pvb_pat in
              let fragment it =
                it.Ast_iterator.pat it vb.pvb_pat;
                it.Ast_iterator.expr it vb.pvb_expr
              in
              let line = Source.line_of_loc vb.pvb_loc in
              match names with
              | [] ->
                  add_value b ~path ~lib ~modname ~name:(prefix ^ init_name)
                    ~line fragment
              | names ->
                  List.iter
                    (fun n ->
                      add_value b ~path ~lib ~modname ~name:(prefix ^ n) ~line
                        fragment)
                    names)
            vbs
      | Parsetree.Pstr_eval (e, _) ->
          add_value b ~path ~lib ~modname ~name:(prefix ^ init_name) ~line
            (fun it -> it.Ast_iterator.expr it e)
      | Parsetree.Pstr_module mb -> bind_module b ~path ~lib ~modname ~prefix mb
      | Parsetree.Pstr_recmodule mbs ->
          List.iter (bind_module b ~path ~lib ~modname ~prefix) mbs
      | Parsetree.Pstr_include incl ->
          add_value b ~path ~lib ~modname ~name:(prefix ^ init_name) ~line
            (fun it -> it.Ast_iterator.module_expr it incl.pincl_mod)
      | _ -> ())
    items

and bind_module b ~path ~lib ~modname ~prefix (mb : Parsetree.module_binding) =
  let line = Source.line_of_loc mb.pmb_loc in
  match mb.pmb_name.Asttypes.txt with
  | Some m -> (
      match mb.pmb_expr.pmod_desc with
      | Parsetree.Pmod_structure items ->
          structure_values b ~path ~lib ~modname ~prefix:(prefix ^ m ^ ".")
            items
      | _ ->
          (* functor / alias / constrained module: one opaque node *)
          add_value b ~path ~lib ~modname ~name:(prefix ^ m) ~line
            (fun it -> it.Ast_iterator.module_expr it mb.pmb_expr))
  | None ->
      add_value b ~path ~lib ~modname ~name:(prefix ^ init_name) ~line
        (fun it -> it.Ast_iterator.module_expr it mb.pmb_expr)

let build (sources : Source.t list) =
  let b = { bvalues = []; bby_key = Hashtbl.create 256 } in
  let module_file = Hashtbl.create 64 in
  let mod_paths = Hashtbl.create 64 in
  let libraries = Hashtbl.create 16 in
  List.iter
    (fun (s : Source.t) ->
      match s.kind with
      | Source.Impl items ->
          if s.library <> "" then Hashtbl.replace libraries s.library ();
          Hashtbl.replace module_file (s.library ^ "." ^ s.modname) s.path;
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt mod_paths s.modname)
          in
          Hashtbl.replace mod_paths s.modname (prev @ [ s.path ]);
          structure_values b ~path:s.path ~lib:s.library ~modname:s.modname
            ~prefix:"" items
      | Source.Intf _ | Source.Broken _ -> ())
    sources;
  {
    values = List.rev b.bvalues;
    by_key = b.bby_key;
    module_file;
    mod_paths;
    libraries;
  }

(* {1 Resolution} *)

let lookup t ~path ~name = Hashtbl.find_opt t.by_key (key ~path ~name)

let resolve t ~path ~lib parts =
  match parts with
  | [] -> None
  | [ n ] -> lookup t ~path ~name:n
  | _ -> (
      let rec split = function
        | [ v ] -> ([], v)
        | m :: rest ->
            let ms, v = split rest in
            (m :: ms, v)
        | [] -> assert false
      in
      let mpath, v = split parts in
      let in_file file rest = lookup t ~path:file ~name:(String.concat "." (rest @ [ v ])) in
      match mpath with
      | l :: m :: rest when Hashtbl.mem t.libraries l -> (
          match Hashtbl.find_opt t.module_file (l ^ "." ^ m) with
          | Some file -> in_file file rest
          | None -> None)
      | m :: rest -> (
          match Hashtbl.find_opt t.module_file (lib ^ "." ^ m) with
          | Some file -> in_file file rest
          | None -> (
              match Hashtbl.find_opt t.mod_paths m with
              | Some [ file ] -> in_file file rest
              | Some _ | None -> None))
      | [] -> None)

let callees t v =
  List.filter_map
    (fun (parts, line) ->
      match resolve t ~path:v.vpath ~lib:v.vlib parts with
      | Some callee -> Some (callee, line)
      | None -> None)
    v.vrefs

(* {1 Reachability} *)

type walk = {
  visited : (string, value) Hashtbl.t;
  order : value list;  (* BFS order *)
  parents : (string, string * int) Hashtbl.t;  (* key -> caller key, line *)
}

let reach t roots =
  let visited = Hashtbl.create 256 in
  let parents = Hashtbl.create 256 in
  let order = ref [] in
  let q = Queue.create () in
  List.iter
    (fun v ->
      let k = value_key v in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k v;
        Queue.push v q
      end)
    roots;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := v :: !order;
    List.iter
      (fun (callee, line) ->
        let k = value_key callee in
        if not (Hashtbl.mem visited k) then begin
          Hashtbl.replace visited k callee;
          Hashtbl.replace parents k (value_key v, line);
          Queue.push callee q
        end)
      (callees t v)
  done;
  { visited; order = List.rev !order; parents }

let chain walk v =
  let rec up k acc =
    match Hashtbl.find_opt walk.parents k with
    | Some (parent, _) -> up parent (parent :: acc)
    | None -> acc
  in
  List.filter_map
    (fun k -> Hashtbl.find_opt walk.visited k)
    (up (value_key v) [ value_key v ])
