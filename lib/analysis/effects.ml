(* Interprocedural effect taint.

   The determinism contract says simulation code — everything reachable
   from the DES, the Raft protocol, and the parallel campaign runner —
   may not read the wall clock, draw from the global [Random] state,
   query the ambient system, or perform ambient I/O.  The [lib/]-wide
   banned-identifier rules ({!Lint}) catch direct uses; this pass
   catches them through any number of local wrappers: it walks the call
   graph forward from every value defined under the entry directories
   and reports each reached value that directly references a banned
   effect, with the full call chain as evidence.

   Findings land on the file holding the direct reference, so
   allowlisting that file for [effect-taint] (e.g. a sanctioned home of
   randomness primitives) silences it without hiding its callers' own
   effects. *)

let rule = "effect-taint"

let benign_sys =
  [
    "opaque_identity";
    "word_size";
    "int_size";
    "big_endian";
    "max_string_length";
    "max_array_length";
    "max_floatarray_length";
    "unix";
    "win32";
    "cygwin";
    "backend_type";
    "ocaml_version";
  ]

let print_prims =
  [
    "print_endline";
    "print_string";
    "print_newline";
    "print_int";
    "print_float";
    "print_char";
    "print_bytes";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
    "prerr_int";
    "prerr_float";
    "prerr_char";
    "prerr_bytes";
  ]

let io_prims =
  [
    "read_line";
    "read_int";
    "read_int_opt";
    "read_float";
    "read_float_opt";
    "open_in";
    "open_in_bin";
    "open_out";
    "open_out_bin";
    "stdin";
    "stdout";
    "stderr";
  ]

let rec unqualified parts =
  match parts with
  | "Stdlib" :: (_ :: _ as rest) -> unqualified rest
  | _ -> parts

let wall_clock parts =
  match unqualified parts with
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] -> true
  | _ -> false

let global_random parts =
  match unqualified parts with "Random" :: _ :: _ -> true | _ -> false

let ambient_print parts =
  match unqualified parts with
  | [ p ] -> List.mem p print_prims
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format"; ("printf" | "eprintf" | "std_formatter" | "err_formatter") ]
    ->
      true
  | _ -> false

let classify parts =
  if wall_clock parts then Some "wall clock"
  else if global_random parts then Some "global Random"
  else if ambient_print parts then Some "ambient I/O"
  else
    match unqualified parts with
    | "Unix" :: _ :: _ -> Some "ambient Unix"
    | [ "Sys"; f ] when not (List.mem f benign_sys) -> Some "ambient Sys"
    | [ p ] when List.mem p io_prims -> Some "ambient I/O"
    | ("In_channel" | "Out_channel") :: _ :: _ -> Some "ambient I/O"
    | _ -> None

let findings ~entry_dirs (cg : Callgraph.t) =
  let is_entry path = List.exists (Source.contains path) entry_dirs in
  let roots =
    List.filter (fun (v : Callgraph.value) -> is_entry v.vpath) cg.values
  in
  let walk = Callgraph.reach cg roots in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (v : Callgraph.value) ->
      List.filter_map
        (fun (parts, line) ->
          match classify parts with
          | None -> None
          | Some category ->
              let effect_name = String.concat "." parts in
              let k = Callgraph.value_key v ^ "!" ^ effect_name in
              if Hashtbl.mem seen k then None
              else begin
                Hashtbl.replace seen k ();
                let chain =
                  List.map Callgraph.display (Callgraph.chain walk v)
                  @ [ effect_name ]
                in
                Some
                  (Finding.v ~path:v.vpath ~line ~rule
                     (Printf.sprintf
                        "%s reaches banned effect `%s` (%s) from a \
                         DES/raft/parallel entry point: %s"
                        (Callgraph.display v) effect_name category
                        (String.concat " -> " chain)))
              end)
        v.vrefs)
    walk.order
