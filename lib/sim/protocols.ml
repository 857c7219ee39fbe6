let builtins =
  [
    Proto_swift.numfabric;
    Proto_swift.numfabric_srpt;
    Proto_dgd.protocol;
    Proto_rcp.protocol;
    Proto_dctcp.protocol;
    Proto_pfabric.protocol;
  ]

let find name = List.find_opt (fun p -> String.equal (Protocol.name p) name) builtins

let names = List.sort String.compare (List.map Protocol.name builtins)

let get name =
  match find name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "unknown protocol %S (known: %s)" name
         (String.concat ", " names))
