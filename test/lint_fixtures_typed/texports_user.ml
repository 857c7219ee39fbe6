(* unused-export fixture, the using side: a direct use, a use through a
   module alias, and two whole-module uses (packing and include). *)

module E = Texports

module type S = sig
  val a : int
  val b : int
end

let direct x = Texports.direct x

let via_alias x = E.via_alias x

let packed = (module Texports_packed : S)

module Extended = struct
  include Texports_included

  let d = c + 1
end
