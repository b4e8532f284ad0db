(* Quickstart: audit the independence of a small two-server redundancy
   deployment (the paper's Figure 2 storage system), then compare what
   SIA reports at each step.

   Run with: dune exec examples/quickstart.exe *)

module Dependency = Indaas_depdata.Dependency
module Depdb = Indaas_depdata.Depdb
module Audit = Indaas_sia.Audit
module Report = Indaas_sia.Report
module Rank = Indaas_sia.Rank
module Dot = Indaas_faultgraph.Dot
module Cutset = Indaas_faultgraph.Cutset

let () =
  print_endline "== INDaaS quickstart ==";
  print_endline "";
  print_endline "Alice replicates her service on servers S1 and S2 and expects";
  print_endline "2-way redundancy. The dependency acquisition modules reported:";
  print_endline "";

  (* Step 1: dependency data, in the paper's Table 1 wire format. This
     is what NSDMiner / lshw / apt-rdepends stand-ins produce. *)
  let raw = {|
<src="S1" dst="Internet" route="ToR1,Core1"/>
<src="S1" dst="Internet" route="ToR1,Core2"/>
<src="S2" dst="Internet" route="ToR1,Core1"/>
<src="S2" dst="Internet" route="ToR1,Core2"/>
<hw="S1" type="CPU" dep="S1-Intel(R)X5550@2.6GHz"/>
<hw="S1" type="Disk" dep="S1-SED900"/>
<hw="S2" type="CPU" dep="S2-Intel(R)X5550@2.6GHz"/>
<hw="S2" type="Disk" dep="S2-SED900"/>
<pgm="QueryEngine1" hw="S1" dep="libc6,libgccl"/>
<pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>
<pgm="QueryEngine2" hw="S2" dep="libc6,libgccl"/>
<pgm="Riak2" hw="S2" dep="libc6,libsvn1"/>
|} in
  print_string raw;
  let db = Depdb.of_string raw in

  (* Step 2: the auditing agent builds the fault graph and determines
     the minimal risk groups. *)
  let report = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  print_endline "";
  print_endline "== SIA auditing report ==";
  print_endline (Report.render_deployment report);

  print_endline "";
  Printf.printf
    "The deployment has %d risk groups; %d are UNEXPECTED (smaller than\n\
     the intended size %d):\n"
    (List.length report.Audit.ranked)
    (List.length report.Audit.unexpected)
    report.Audit.expected_rg_size;
  List.iter
    (fun rg ->
      Printf.printf "  - {%s}: a single failure defeats the redundancy\n"
        (String.concat ", " (Cutset.names report.Audit.graph rg.Rank.rg)))
    report.Audit.unexpected;

  (* Step 3: export the fault graph for inspection. *)
  let out = Filename.concat (Filename.get_temp_dir_name ()) "indaas-quickstart.dot" in
  Dot.write_file out report.Audit.graph;
  print_endline "";
  Printf.printf "Fault graph written to %s (render with graphviz).\n" out;

  (* Step 4: what the operators should do about it. *)
  print_endline "";
  print_endline "Shared ToR switch and shared packages (libc6, libgccl, libsvn1)";
  print_endline "are single points of failure: move S2 behind its own ToR and";
  print_endline "diversify the software stacks, then re-audit."
