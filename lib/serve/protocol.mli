(** Wire protocol of the allocation service: line-delimited JSON.

    Each request is one JSON object on one line; each reply is one JSON
    object on one line, with an ["ok"] boolean first. The full grammar
    (commands, replies, the push messages subscribers receive) is in
    DESIGN.md "Serve & delta API"; this module is the single
    encoder/decoder both the server and the test client use, so the two
    sides cannot drift. *)

type utility_spec =
  | Pf of { weight : float }  (** proportional fairness (α = 1) *)
  | Alpha of { weight : float; alpha : float }  (** general α-fair *)
  | Fct of { size : float; eps : float }  (** flow-completion-time weight *)

val utility : utility_spec -> Nf_num.Utility.t

type command =
  | Add of { utility : utility_spec; paths : int array list }
      (** new group; one path per sub-flow. Reply carries its [gid]. *)
  | Remove of { gid : int }
  | Set_cap of { link : int; cap : float }
  | Solve  (** force an epoch solve now (events normally batch) *)
  | Query of { gid : int }  (** group aggregate rate from the last epoch *)
  | Stats  (** epochs, events, warm/cold iterations, p99 latency *)
  | Subscribe  (** receive a push line after every epoch *)
  | Ping
  | Shutdown

val decode_command : string -> (command, string) result
(** Decode one request line. Unknown [cmd] names, missing fields and
    malformed JSON all yield [Error] with a human-readable reason (which
    the server sends back verbatim in an error reply). *)

val encode_command : command -> string
(** One line, no trailing newline. [decode_command (encode_command c)]
    round-trips. *)

(** {2 Replies} — built as {!Nf_util.Json.t} so call sites can add fields. *)

val ok : (string * Nf_util.Json.t) list -> string
(** [{"ok":true, ...fields}] as one line. *)

val error : string -> string
(** [{"ok":false,"error":reason}] as one line. *)

val decode_reply : string -> ((string * Nf_util.Json.t) list, string) result
(** Client side: the reply's fields on ["ok":true], [Error reason] on an
    error reply or malformed input. *)
