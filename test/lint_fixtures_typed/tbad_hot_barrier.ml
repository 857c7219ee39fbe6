(* Typed hot-barrier bad cases. Expected hot-barrier findings: a record
   stored into a mutable field ([set_head]), a closure into an array
   ([schedule]), a list into a ref bound outside the body ([push]), a constant
   constructor of a type that has non-constant ones ([reset]), a pooled
   packet into a packet array instead of its id ([keep]), and a waiver with no justification
   ([waived]). *)

type node = { v : int }

type slot = { mutable head : node; mutable choice : int option }

let[@nf.hot] set_head s n = s.head <- n

let[@nf.hot] schedule (acts : (unit -> unit) array) i f = acts.(i) <- f

let stack : int list ref = ref []

let[@nf.hot] push xs = stack := xs

let[@nf.hot] reset s = s.choice <- None

let[@nf.hot] keep pool (ring : Nf_sim.Packet.t array) path i =
  ring.(i) <- Nf_sim.Packet.alloc_data pool ~flow:0 ~seq:i ~size:1500 ~path ~now:0.

let[@nf.hot] waived s n = (s.head <- n) [@nf.allow "hot-barrier"]
