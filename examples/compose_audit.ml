(* Aggregate dependency graphs (paper §4.1.1, "composition").

   Models the motivating AWS outage of the paper's introduction: EC2
   instances that look redundant but both depend on the EBS control
   plane. Composing the per-service fault graphs surfaces the shared
   dependency; refining a basic event shows how deeper structure
   changes the verdict.

   Run with: dune exec examples/compose_audit.exe *)

module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Compose = Indaas_faultgraph.Compose
module Probability = Indaas_faultgraph.Probability
module Bdd = Indaas_faultgraph.Bdd

let print_rgs g =
  let rgs = Cutset.minimal_risk_groups g in
  Printf.printf "  %d minimal risk groups:\n" (List.length rgs);
  List.iter
    (fun rg -> Printf.printf "    {%s}\n" (String.concat ", " (Cutset.names g rg)))
    (List.sort
       (fun a b -> compare (Array.length a) (Array.length b))
       rgs)

let () =
  print_endline "== Composing per-service fault graphs (AWS-outage shape) ==";
  print_endline "";

  (* Each EC2 instance, audited alone, looks fine: its only
     dependencies are its own rack and the shared EBS service. *)
  let instance name rack =
    Graph.of_fault_sets
      [ (name, [ (rack, 0.05); ("EBS-control-plane", 0.01) ]) ]
  in
  let east = instance "ec2-east" "rack-east" in
  let west = instance "ec2-west" "rack-west" in

  print_endline "Deployment graph = AND(ec2-east, ec2-west) after composition:";
  let combined = Compose.compose ~name:"storage-service" Graph.And [ east; west ] in
  print_rgs combined;
  print_endline "";
  print_endline "  -> {EBS-control-plane} is a size-1 risk group: the 'redundant'";
  print_endline "     instances share their storage backend (the 2012 US-East event).";
  print_endline "";

  let pr = Bdd.graph_probability combined in
  Printf.printf "  Pr(service fails) = %.4f; the shared backend contributes %.0f%%\n"
    pr
    (100.
    *. Probability.relative_importance ~top_probability:pr
         ~rg_probability:0.01);
  print_endline "";

  (* Refinement: EBS itself is internally redundant across two
     replicas... but both replicas run the same buggy agent. *)
  print_endline "Refining the EBS basic event with its own internal structure";
  print_endline "(two replicas, both running the same agent software):";
  let ebs_internal =
    Graph.of_fault_sets
      [
        ("ebs-replica-1", [ ("ebs-server-1", 0.05); ("ebs-agent", 0.01) ]);
        ("ebs-replica-2", [ ("ebs-server-2", 0.05); ("ebs-agent", 0.01) ]);
      ]
  in
  let refined =
    Compose.replace_basic_with combined ~basic:"EBS-control-plane" ebs_internal
  in
  print_rgs refined;
  print_endline "";
  print_endline "  -> the singleton moved one level down: {ebs-agent} is the true";
  print_endline "     common-mode failure; the EBS servers themselves are redundant."
