type t = { on : bool; mutable seq : int (* cause sequence counter *) }

let create ?(enabled = true) () = { on = enabled; seq = 0 }

(* The shared disabled switch mutates nothing: [new_cause] bails on [on]
   before touching [seq]. *)
let noop = { on = false; seq = 0 }
let enabled t = t.on

let new_cause t ~kind ~node ~term =
  if not t.on then Cause.none
  else begin
    t.seq <- t.seq + 1;
    Cause.make ~kind ~node ~term ~seq:t.seq
  end
