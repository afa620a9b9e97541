(* A structured finding from the AST analyzer, plus the allowlist that
   suppresses sanctioned hits: one [path-suffix:rule-id] per line, [#]
   comments and blanks ignored; a finding is suppressed when its path
   ends with the suffix and the rule id matches. *)

type t = {
  path : string;  (** path of the file the finding points at *)
  line : int;  (** 1-based line of the offending construct *)
  rule : string;  (** rule id, e.g. ["effect-taint"] *)
  message : string;  (** human-readable explanation, incl. call chains *)
}

let v ~path ~line ~rule message = { path; line; rule; message }

let render t = Printf.sprintf "%s:%d: [%s] %s" t.path t.line t.rule t.message

let compare a b =
  let c = String.compare a.path b.path in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = String.compare a.rule b.rule in
      if c <> 0 then c else String.compare a.message b.message

(* {1 Allowlist} *)

type allow = (string * string) list
(* [(path-suffix, rule-id)] pairs *)

let parse_allow source =
  let lines =
    String.split_on_char '\n' source
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match List.find_opt (fun l -> not (String.contains l ':')) lines with
  | Some malformed -> Error malformed
  | None ->
      Ok
        (List.map
           (fun l ->
             let c = String.rindex l ':' in
             (String.sub l 0 c, String.sub l (c + 1) (String.length l - c - 1)))
           lines)

let allowed (allow : allow) ~path ~rule =
  List.exists
    (fun (suffix, rule_id) ->
      String.equal rule_id rule && Filename.check_suffix path suffix)
    allow
