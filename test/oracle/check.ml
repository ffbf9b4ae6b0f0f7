exception Mismatch of string

let () =
  Printexc.register_printer (function
    | Mismatch msg -> Some ("oracle mismatch: " ^ msg)
    | _ -> None)

let fail ~layer fmt =
  Printf.ksprintf (fun msg -> raise (Mismatch (layer ^ ": " ^ msg))) fmt

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let result f = match f () with v -> Ok v | exception Mismatch msg -> Error msg
