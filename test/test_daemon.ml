(* The serve daemon as a process: the `nf_run serve` executable, driven
   over real sockets. A departed client must cost the daemon that client
   only. Every wait has a deadline, so a daemon that died or hangs fails
   the test instead of stalling it. *)

module Protocol = Nf_serve.Protocol

let nf_run =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/nf_run.exe"

let deadline = 10.

(* A small fabric: the daemon starts in milliseconds. *)
let fabric =
  [ "--leaves"; "2"; "--spines"; "2"; "--servers-per-leaf"; "2"; "--pool"; "8" ]

type daemon = { pid : int; log : Unix.file_descr; mutable reaped : bool }

(* The daemon starts with SIGPIPE at its default action, as a shell
   starts it, whatever this process does with the signal. *)
let spawn addr_args =
  let log_r, log_w = Unix.pipe ~cloexec:true () in
  let saved = Sys.signal Sys.sigpipe Sys.Signal_default in
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved)
      (fun () ->
        Unix.create_process nf_run
          (Array.of_list (("nf_run" :: "serve" :: addr_args) @ fabric))
          Unix.stdin Unix.stdout log_w)
  in
  Unix.close log_w;
  { pid; log = log_r; reaped = false }

(* The daemon's first stderr line, "nf_run serve: listening on ADDR",
   printed once it listens. *)
let listening_line d =
  let buf = Buffer.create 64 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.select [ d.log ] [] [] deadline with
    | [], _, _ -> Alcotest.fail "daemon did not report listening in time"
    | _ -> (
      match Unix.read d.log byte 0 1 with
      | 0 -> Alcotest.failf "daemon exited before listening: %S" (Buffer.contents buf)
      | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
      | _ ->
        Buffer.add_bytes buf byte;
        go ())
  in
  go ()

let wait_exit d =
  let stop = Unix.gettimeofday () +. deadline in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < stop ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ -> Alcotest.fail "daemon did not exit in time"
    | _, status ->
      d.reaped <- true;
      status
  in
  go ()

let with_daemon addr_args f =
  let d = spawn addr_args in
  Fun.protect
    ~finally:(fun () ->
      if not d.reaped then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end;
      Unix.close d.log)
    (fun () -> f d)

let connect sockaddr =
  let domain = Unix.domain_of_sockaddr sockaddr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline;
    fd
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Alcotest.failf "connect: %s (did the daemon die?)" (Unix.error_message e)

let send fd line =
  let data = line ^ "\n" in
  let n = String.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd data !off (n - !off)
  done

let read_line fd =
  let buf = Buffer.create 128 and byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Alcotest.failf "EOF instead of a reply (after %S)" (Buffer.contents buf)
    | _ when Bytes.get byte 0 = '\n' -> Buffer.contents buf
    | _ ->
      Buffer.add_bytes buf byte;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "no reply within the deadline"
    | exception Unix.Unix_error (e, _, _) ->
      Alcotest.failf "reading the reply: %s" (Unix.error_message e)
  in
  go ()

let request fd line =
  send fd line;
  match Protocol.decode_reply (read_line fd) with
  | Ok _ -> ()
  | Error reason -> Alcotest.failf "%s: %s" line reason

(* One client sends two requests and closes before reading a reply.
   Over a Unix socket the first reply already meets the closed peer;
   over TCP it draws a reset, and the second write is the one that
   fails. A second client must still be answered, and a shutdown must
   end the daemon with exit code 0. *)
let close_before_reply addr_args sockaddr_of =
  with_daemon addr_args (fun d ->
      let sockaddr = sockaddr_of (listening_line d) in
      let gone = connect sockaddr in
      send gone ({|{"cmd":"stats"}|} ^ "\n" ^ {|{"cmd":"stats"}|});
      Unix.close gone;
      let c = connect sockaddr in
      Fun.protect
        ~finally:(fun () -> Unix.close c)
        (fun () ->
          request c {|{"cmd":"ping"}|};
          request c {|{"cmd":"shutdown"}|});
      match wait_exit d with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exited with %d" n
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        Alcotest.failf "daemon killed by signal %d" s)

let after_prefix ~prefix line =
  if String.starts_with ~prefix line then
    String.sub line (String.length prefix) (String.length line - String.length prefix)
  else Alcotest.failf "unexpected daemon banner %S" line

let test_unix_socket () =
  let path = Filename.temp_file "nf_daemon_test" ".sock" in
  Sys.remove path;
  close_before_reply [ "--socket"; path ] (fun line ->
      Unix.ADDR_UNIX (after_prefix ~prefix:"nf_run serve: listening on " line))

let test_tcp () =
  close_before_reply [ "--port"; "0" ] (fun line ->
      let port =
        int_of_string (after_prefix ~prefix:"nf_run serve: listening on 127.0.0.1:" line)
      in
      Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let () =
  (* A write to a dead daemon fails the test with EPIPE instead of
     killing the test process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "daemon"
    [
      ( "close before reply",
        [
          Alcotest.test_case "unix socket" `Quick test_unix_socket;
          Alcotest.test_case "tcp" `Quick test_tcp;
        ] );
    ]
