(* Host speed: the wall time of the reference loop, run as calib.exe
   (beside this executable) in a process of its own. *)

let exe = lazy (Filename.concat (Filename.dirname Sys.executable_name) "calib.exe")

let time_ns () =
  let ic = Unix.open_process_args_in (Lazy.force exe) [| "calib.exe" |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line int_of_string_opt) with
  | Unix.WEXITED 0, Some ns -> ns
  | _ -> failwith ("reference loop failed: " ^ Lazy.force exe)
