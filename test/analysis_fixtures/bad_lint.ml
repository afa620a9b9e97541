(* Analyzer self-test fixture for the nine local rules (Analysis.Lint):
   every forbidden pattern, at least one per rule.  Never compiled. *)

(* wall-clock *)
let now () = Unix.gettimeofday ()
let cpu_seconds = Sys.time ()
let epoch = Unix.time ()

(* global-rng *)
let roll () = Random.int 6
let seed () = Random.self_init ()

(* obj-magic *)
let cast x = Obj.magic x

(* poly-compare *)
let cmp a b = Stdlib.compare a b
let bucket x = Hashtbl.hash x

(* mutable-global *)
let counter = ref 0
let total : float ref = ref 0.

(* stdlib-exit *)
let bail () = exit 1
let die code = Stdlib.exit code

(* raw-fabric-send *)
let ship fabric kind ~src ~dst msg = Netsim.Fabric.send fabric kind ~src ~dst msg
let ship_aliased fabric kind ~src ~dst msg = Fabric.send fabric kind ~src ~dst msg

(* hot-alloc: a [@hot] binding calling allocating combinators, formatting,
   and holding a lambda literal *)
let[@hot] relay_all peers msg =
  let framed = List.map (fun p -> (p, msg)) peers in
  Format.eprintf "relaying %d@." (List.length framed);
  Array.of_list framed

(* direct-print *)
let show x = Printf.printf "%d\n" x
let complain msg = Format.eprintf "%s@." msg
let announce () = print_endline "ready"
let default_ppf = Format.std_formatter

(* mutable-global: any mutable constructor, not only [ref] *)
let registry : (int, string) Hashtbl.t = Hashtbl.create 16

(* hot-alloc reaches into submodules, and a lambda nested below the
   binding's parameter chain is still a closure per call *)
module Pool = struct
  let[@hot] release_all release msgs = Array.iter (fun m -> release m) msgs
end
