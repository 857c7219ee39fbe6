(** The always-on allocation daemon: a single-threaded [Unix.select]
    loop over one listening socket (TCP on loopback, or a Unix-domain
    path) speaking the line-delimited JSON {!Protocol}.

    Epoch batching: every select round first drains all readable
    clients, then — if any events arrived — runs {e one} warm-started
    {!Engine.solve_epoch} for the whole batch and pushes an epoch line
    to subscribers. A client whose first line is an HTTP
    [GET] is served the Prometheus exposition of
    [Nf_util.Metrics.global] ([/metrics] or [/]) and closed, so the same
    port is both the command socket and the scrape endpoint.

    A request line may be at most 1 MiB long: a client that sends more
    without a newline gets a {!Protocol.error} reply and is closed. *)

type addr =
  | Tcp of int  (** loopback TCP; port 0 binds an ephemeral port *)
  | Unix_sock of string  (** path (re-created at bind) *)

type t

val create : ?backlog:int -> engine:Engine.t -> addr -> t
(** Bind and listen (backlog default 64).
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int option
(** The actually-bound TCP port ([None] for a Unix socket) — how tests
    discover an ephemeral port. *)

val run : t -> unit
(** Serve until a [shutdown] command or {!stop}. Closes every client,
    the listening socket, and (for a Unix socket) unlinks the path
    before returning. *)

val stop : t -> unit
(** Ask a running {!run} to exit its loop; safe from another domain
    (self-pipe wakeup). *)
