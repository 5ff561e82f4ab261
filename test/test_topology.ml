(* Tests for the XML parser, SNDLib/GraphML readers, the synthetic
   generator and the dataset registry. *)

open Netgraph
open Topology

let checkf = Alcotest.(check (float 1e-9))

(* Every node reachable from node 0 along directed edges. *)
let connected g = Array.for_all Fun.id (Paths.reachable g ~source:0)

(* ------------------------------------------------------------------ *)
(* Xmlparse                                                            *)
(* ------------------------------------------------------------------ *)

let test_xml_basic () =
  let doc = Xmlparse.parse "<a x=\"1\"><b>hi</b><b>ho</b></a>" in
  Alcotest.(check string) "root" "a" (Xmlparse.tag doc);
  Alcotest.(check (option string)) "attr" (Some "1") (Xmlparse.attr doc "x");
  Alcotest.(check int) "children" 2 (List.length (Xmlparse.find_all doc "b"));
  match Xmlparse.find_first doc "b" with
  | Some b -> Alcotest.(check string) "text" "hi" (Xmlparse.text_content b)
  | None -> Alcotest.fail "b not found"

let test_xml_self_closing () =
  let doc = Xmlparse.parse "<a><b k=\"v\"/><c/></a>" in
  Alcotest.(check int) "two children" 2 (List.length (Xmlparse.children doc))

let test_xml_prolog_comment_doctype () =
  let doc =
    Xmlparse.parse
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hello --><a><!-- inner -->x</a>"
  in
  Alcotest.(check string) "text" "x" (Xmlparse.text_content doc)

let test_xml_entities () =
  let doc = Xmlparse.parse "<a b=\"x&amp;y\">1 &lt; 2 &#65;</a>" in
  Alcotest.(check (option string)) "attr entity" (Some "x&y") (Xmlparse.attr doc "b");
  Alcotest.(check string) "text entities" "1 < 2 A" (Xmlparse.text_content doc)

let test_xml_cdata () =
  let doc = Xmlparse.parse "<a><![CDATA[<raw&stuff>]]></a>" in
  Alcotest.(check string) "cdata" "<raw&stuff>" (Xmlparse.text_content doc)

let test_xml_nested_descendants () =
  let doc = Xmlparse.parse "<a><b><c>1</c></b><c>2</c></a>" in
  Alcotest.(check int) "two c descendants" 2 (List.length (Xmlparse.descendants doc "c"))

let test_xml_errors () =
  List.iter
    (fun src ->
      match Xmlparse.parse src with
      | exception Xmlparse.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected parse error for %s" src))
    [ "<a>"; "<a></b>"; "<a x=1></a>"; "" ]

let test_xml_single_quotes () =
  let doc = Xmlparse.parse "<a x='q'/>" in
  Alcotest.(check (option string)) "single-quoted attr" (Some "q") (Xmlparse.attr doc "x")

(* ------------------------------------------------------------------ *)
(* Sndlib                                                              *)
(* ------------------------------------------------------------------ *)

let sndlib_xml_sample =
  {|<?xml version="1.0" encoding="utf-8"?>
<network xmlns="http://sndlib.zib.de/network" version="1.0">
 <networkStructure>
  <nodes coordinatesType="geographical">
   <node id="A"><coordinates><x>0</x><y>0</y></coordinates></node>
   <node id="B"><coordinates><x>1</x><y>0</y></coordinates></node>
   <node id="C"><coordinates><x>2</x><y>0</y></coordinates></node>
  </nodes>
  <links>
   <link id="LAB"><source>A</source><target>B</target>
     <preInstalledModule><capacity>40.0</capacity><cost>1</cost></preInstalledModule>
   </link>
   <link id="LBC"><source>B</source><target>C</target>
     <additionalModules>
       <addModule><capacity>10.0</capacity><cost>1</cost></addModule>
       <addModule><capacity>40.0</capacity><cost>2</cost></addModule>
     </additionalModules>
   </link>
  </links>
 </networkStructure>
 <demands>
  <demand id="DAC"><source>A</source><target>C</target><demandValue>7.5</demandValue></demand>
 </demands>
</network>|}

(* [load contents] on a temporary file holding [contents]. *)
let load_string load contents =
  let path = Filename.temp_file "topo" ".txt" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> load path)

let test_sndlib_xml () =
  let t = load_string Sndlib.load_file sndlib_xml_sample in
  let g = t.Sndlib.graph in
  Alcotest.(check int) "nodes" 3 (Digraph.node_count g);
  Alcotest.(check int) "edges (bidirected)" 4 (Digraph.edge_count g);
  let a = Digraph.node_of_name g "A" and b = Digraph.node_of_name g "B" in
  (match Digraph.find_edge g ~src:a ~dst:b with
  | Some e -> checkf "preinstalled capacity" 40. (Digraph.cap g e)
  | None -> Alcotest.fail "A->B missing");
  let b' = Digraph.node_of_name g "B" and c = Digraph.node_of_name g "C" in
  (match Digraph.find_edge g ~src:b' ~dst:c with
  | Some e -> checkf "largest module capacity" 40. (Digraph.cap g e)
  | None -> Alcotest.fail "B->C missing");
  Alcotest.(check (list (triple string string (float 1e-9))))
    "demands" [ ("A", "C", 7.5) ] t.Sndlib.demands

let sndlib_native_sample =
  "# test\n\
   NODES (\n\
  \  A ( 0.0 0.0 )\n\
  \  B ( 1.0 0.0 )\n\
  \  C ( 2.0 0.0 )\n\
   )\n\
   LINKS (\n\
  \  LAB ( A B ) 40.0 0.0 0.0 0.0 ( )\n\
  \  LBC ( B C ) 0.0 0.0 0.0 0.0 ( 10.0 1.0 40.0 2.0 )\n\
   )\n\
   DEMANDS (\n\
  \  DAC ( A C ) 1 7.5 UNLIMITED\n\
   )\n"

let test_sndlib_native () =
  let t = Sndlib.of_native sndlib_native_sample in
  let g = t.Sndlib.graph in
  Alcotest.(check int) "nodes" 3 (Digraph.node_count g);
  Alcotest.(check int) "edges" 4 (Digraph.edge_count g);
  let b = Digraph.node_of_name g "B" and c = Digraph.node_of_name g "C" in
  (match Digraph.find_edge g ~src:b ~dst:c with
  | Some e -> checkf "module capacity" 40. (Digraph.cap g e)
  | None -> Alcotest.fail "B->C missing");
  Alcotest.(check (list (triple string string (float 1e-9))))
    "demands" [ ("A", "C", 7.5) ] t.Sndlib.demands

let test_sndlib_load_file_dispatch () =
  let dir = Filename.temp_file "sndlib" "" in
  Sys.remove dir;
  let write name contents =
    let path = Filename.temp_file name ".txt" in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  let xml_path = write "x" sndlib_xml_sample in
  let native_path = write "n" sndlib_native_sample in
  let tx = Sndlib.load_file xml_path and tn = Sndlib.load_file native_path in
  Alcotest.(check int) "same nodes" (Digraph.node_count tx.Sndlib.graph)
    (Digraph.node_count tn.Sndlib.graph);
  Sys.remove xml_path;
  Sys.remove native_path

(* ------------------------------------------------------------------ *)
(* Graphml                                                             *)
(* ------------------------------------------------------------------ *)

let graphml_sample =
  {|<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
 <key attr.name="label" attr.type="string" for="node" id="d1"/>
 <key attr.name="LinkSpeedRaw" attr.type="double" for="edge" id="d2"/>
 <graph edgedefault="undirected">
  <node id="n0"><data key="d1">Vienna</data></node>
  <node id="n1"><data key="d1">Graz</data></node>
  <node id="n2"><data key="d1">Linz</data></node>
  <edge source="n0" target="n1"><data key="d2">10000000000</data></edge>
  <edge source="n1" target="n2"/>
 </graph>
</graphml>|}

let test_graphml () =
  let g = load_string Graphml.load_file graphml_sample in
  Alcotest.(check int) "nodes" 3 (Digraph.node_count g);
  Alcotest.(check int) "edges" 4 (Digraph.edge_count g);
  let v = Digraph.node_of_name g "Vienna" and gr = Digraph.node_of_name g "Graz" in
  (match Digraph.find_edge g ~src:v ~dst:gr with
  | Some e -> checkf "10G in Mbit/s" 10_000. (Digraph.cap g e)
  | None -> Alcotest.fail "Vienna->Graz missing");
  let l = Digraph.node_of_name g "Linz" in
  (match Digraph.find_edge g ~src:gr ~dst:l with
  | Some e -> checkf "default capacity" 1000. (Digraph.cap g e)
  | None -> Alcotest.fail "Graz->Linz missing")

let test_graphml_duplicate_labels () =
  let src =
    {|<graphml><key attr.name="label" for="node" id="d1"/><graph>
      <node id="n0"><data key="d1">X</data></node>
      <node id="n1"><data key="d1">X</data></node>
      <edge source="n0" target="n1"/>
    </graph></graphml>|}
  in
  let g = load_string Graphml.load_file src in
  Alcotest.(check int) "two distinct nodes" 2 (Digraph.node_count g);
  Alcotest.(check int) "edge present" 2 (Digraph.edge_count g)

(* ------------------------------------------------------------------ *)
(* Gen + Datasets                                                      *)
(* ------------------------------------------------------------------ *)

let test_gen_sizes () =
  let g = Gen.synthetic ~name:"T" ~nodes:20 ~links:35 () in
  Alcotest.(check int) "nodes" 20 (Digraph.node_count g);
  Alcotest.(check int) "edges" 70 (Digraph.edge_count g)

let test_gen_deterministic () =
  let g1 = Gen.synthetic ~name:"T" ~nodes:15 ~links:25 () in
  let g2 = Gen.synthetic ~name:"T" ~nodes:15 ~links:25 () in
  Alcotest.(check bool) "same edges" true (Digraph.edges g1 = Digraph.edges g2);
  let g3 = Gen.synthetic ~name:"U" ~nodes:15 ~links:25 () in
  Alcotest.(check bool) "different name differs" true (Digraph.edges g1 <> Digraph.edges g3)

let test_gen_connected () =
  let g = Gen.synthetic ~name:"C" ~nodes:30 ~links:45 () in
  Alcotest.(check bool) "strongly connected" true (connected g);
  Alcotest.(check bool) "reverse connected" true
    (connected (Digraph.reverse g))

let test_gen_guards () =
  Alcotest.check_raises "links >= nodes"
    (Invalid_argument "Gen.synthetic: links >= nodes required") (fun () ->
      ignore (Gen.synthetic ~name:"x" ~nodes:10 ~links:5 ()))

let test_abilene () =
  let g = Datasets.abilene () in
  Alcotest.(check int) "12 nodes" 12 (Digraph.node_count g);
  Alcotest.(check int) "30 directed edges" 30 (Digraph.edge_count g);
  Alcotest.(check bool) "connected" true (connected g);
  let m5 = Digraph.node_of_name g "ATLAM5" and atl = Digraph.node_of_name g "ATLAng" in
  (match Digraph.find_edge g ~src:m5 ~dst:atl with
  | Some e -> checkf "OC-48 access" 2480. (Digraph.cap g e)
  | None -> Alcotest.fail "ATLAM5 link missing")

let test_registry () =
  Alcotest.(check int) "19 topologies" 19 (List.length Datasets.all);
  Alcotest.(check int) "fig4 has 10" 10 (List.length Datasets.fig4_names);
  Alcotest.(check int) "scale suite has 6" 6 (List.length Datasets.scale_names);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (List.exists (fun i -> i.Datasets.name = name) Datasets.all))
    Datasets.scale_names;
  List.iter
    (fun info ->
      let g = Datasets.load info.Datasets.name in
      Alcotest.(check int)
        (info.Datasets.name ^ " nodes")
        info.Datasets.nodes (Digraph.node_count g);
      Alcotest.(check int)
        (info.Datasets.name ^ " edges")
        (2 * info.Datasets.links)
        (Digraph.edge_count g);
      Alcotest.(check bool) (info.Datasets.name ^ " connected") true
        (connected g))
    Datasets.all

let test_registry_unknown () =
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Datasets.load "nope"))

let test_load_case_insensitive () =
  let g = Datasets.load "abilene" in
  Alcotest.(check int) "12 nodes" 12 (Digraph.node_count g)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let same_graph a b =
  Digraph.node_count a = Digraph.node_count b
  && Digraph.edge_count a = Digraph.edge_count b
  && List.for_all
       (fun (u, v, c) ->
         (* Endpoints by name, since edge order may differ. *)
         let u' = Digraph.node_of_name b (Digraph.node_name a u) in
         let v' = Digraph.node_of_name b (Digraph.node_name a v) in
         match Digraph.find_edge b ~src:u' ~dst:v' with
         | Some e -> abs_float (Digraph.cap b e -. c) <= 1e-6 *. c
         | None -> false)
       (Digraph.edges a)

let test_sndlib_roundtrip () =
  let g = Datasets.abilene () in
  let text = Export.to_sndlib_native g in
  let g' = (Sndlib.of_native text).Sndlib.graph in
  Alcotest.(check bool) "roundtrip preserves the graph" true (same_graph g g')

let test_sndlib_roundtrip_demands () =
  let g = Datasets.abilene () in
  let demands = [ ("ATLAng", "STTLng", 12.5); ("NYCMng", "LOSAng", 3.25) ] in
  let text = Export.to_sndlib_native ~demands g in
  let t = Sndlib.of_native text in
  Alcotest.(check (list (triple string string (float 1e-6)))) "demands survive"
    demands t.Sndlib.demands

let test_export_rejects_oneway () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 1.) ] in
  (match Export.to_sndlib_native g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of one-way edge")

let test_dot_output () =
  let g = Datasets.abilene () in
  let dot = Export.to_dot g in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  let congested = Array.make (Digraph.edge_count g) 1.5 in
  let dot2 = Export.to_dot ~utilizations:congested g in
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "congestion is highlighted" true (contains dot2 "color=red")

let test_roundtrip_synthetic =
  QCheck.Test.make ~name:"export/parse roundtrip on synthetic topologies" ~count:20
    (QCheck.make
       QCheck.Gen.(
         int_range 4 20 >>= fun nodes ->
         int_range 0 20 >>= fun extra -> return (nodes, nodes + extra))
       ~print:(fun (n, l) -> Printf.sprintf "n=%d links=%d" n l))
    (fun (nodes, links) ->
      let g = Gen.synthetic ~name:"rt" ~nodes ~links () in
      let g' = (Sndlib.of_native (Export.to_sndlib_native g)).Sndlib.graph in
      same_graph g g')

let () =
  Alcotest.run "topology"
    [
      ( "xmlparse",
        [
          Alcotest.test_case "basic" `Quick test_xml_basic;
          Alcotest.test_case "self closing" `Quick test_xml_self_closing;
          Alcotest.test_case "prolog/comment/doctype" `Quick test_xml_prolog_comment_doctype;
          Alcotest.test_case "entities" `Quick test_xml_entities;
          Alcotest.test_case "cdata" `Quick test_xml_cdata;
          Alcotest.test_case "descendants" `Quick test_xml_nested_descendants;
          Alcotest.test_case "errors" `Quick test_xml_errors;
          Alcotest.test_case "single quotes" `Quick test_xml_single_quotes;
        ] );
      ( "sndlib",
        [
          Alcotest.test_case "xml format" `Quick test_sndlib_xml;
          Alcotest.test_case "native format" `Quick test_sndlib_native;
          Alcotest.test_case "load_file dispatch" `Quick test_sndlib_load_file_dispatch;
        ] );
      ( "graphml",
        [
          Alcotest.test_case "basic" `Quick test_graphml;
          Alcotest.test_case "duplicate labels" `Quick test_graphml_duplicate_labels;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "gen sizes" `Quick test_gen_sizes;
          Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "gen connected" `Quick test_gen_connected;
          Alcotest.test_case "gen guards" `Quick test_gen_guards;
          Alcotest.test_case "abilene" `Quick test_abilene;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "unknown name" `Quick test_registry_unknown;
          Alcotest.test_case "case insensitive" `Quick test_load_case_insensitive;
        ] );
      ( "export",
        [
          Alcotest.test_case "sndlib roundtrip" `Quick test_sndlib_roundtrip;
          Alcotest.test_case "demands roundtrip" `Quick test_sndlib_roundtrip_demands;
          Alcotest.test_case "rejects one-way" `Quick test_export_rejects_oneway;
          Alcotest.test_case "dot output" `Quick test_dot_output;
          QCheck_alcotest.to_alcotest test_roundtrip_synthetic;
        ] );
    ]
