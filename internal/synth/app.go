package synth

import (
	"fmt"
	"math"
	"strings"
	"time"

	"libspector/internal/apk"
	"libspector/internal/art"
	"libspector/internal/corpus"
	"libspector/internal/dex"
	"libspector/internal/nets"
	"libspector/internal/sim"
)

// App is one generated application: the apk artifact (as the store ships
// it) plus the executable behaviour model the emulator runs.
type App struct {
	Index   int
	APK     *apk.APK
	Encoded []byte
	SHA256  string
	Program *art.Program
	// LibIdxs are world library indices embedded in the app.
	LibIdxs []int

	profile antProfile
}

// AnTOnly reports whether the app's generated traffic is exclusively
// advertisement/tracker traffic (ground truth for validating Figure 6).
func (a *App) AnTOnly() bool { return a.profile == antOnly }

// AnTFree reports whether the app generates no AnT traffic at all.
func (a *App) AnTFree() bool { return a.profile == antFree }

// descriptor pool for generated method parameters and returns.
var descriptorPool = []string{
	dex.DescVoid, dex.DescBoolean, dex.DescInt, dex.DescLong,
	dex.DescFloat, dex.DescDouble,
	"Ljava/lang/String;", "Ljava/lang/Object;", "[B", "[Ljava/lang/String;",
	"Landroid/content/Context;", "Ljava/util/List;", "Ljava/util/Map;",
}

var methodVerbs = []string{
	"get", "set", "load", "fetch", "init", "update", "parse", "send",
	"handle", "create", "build", "resolve", "dispatch", "render", "track",
}

var methodNouns = []string{
	"Data", "Config", "Request", "Response", "State", "Cache", "Session",
	"Event", "Token", "Item", "Page", "User", "Batch", "Payload", "View",
}

var classNouns = []string{
	"Manager", "Controller", "Service", "Helper", "Client", "Provider",
	"Loader", "Handler", "Worker", "Engine", "Adapter", "Factory",
}

var subPackages = []string{
	"internal", "core", "cache", "net", "ui", "util", "impl", "model",
	"android", "api", "data", "a", "b",
}

// codeGen emits synthetic dex methods with realistic naming: hierarchical
// packages, a mix of readable and obfuscated identifiers, and occasional
// overloads (which exercise the type-signature disambiguation of §II-B2a).
type codeGen struct {
	d   *dex.File
	rng *sim.Rand
}

// genPackage creates approximately count methods under the base package
// (spread over subpackages and classes) and returns their dex indices.
func (g *codeGen) genPackage(base string, count int) ([]int, error) {
	if count < 1 {
		count = 1
	}
	idxs := make([]int, 0, count)
	// Choose a handful of package variants under base.
	numPkgs := 1 + count/60
	if numPkgs > 6 {
		numPkgs = 6
	}
	pkgs := make([]string, 0, numPkgs)
	pkgs = append(pkgs, base)
	for len(pkgs) < numPkgs {
		depth := 1 + g.rng.Intn(2)
		p := base
		for d := 0; d < depth; d++ {
			p += "." + subPackages[g.rng.Intn(len(subPackages))]
		}
		pkgs = append(pkgs, p)
	}

	obfuscated := g.rng.Bool(0.4)
	classSeq := 0
	for len(idxs) < count {
		pkg := pkgs[g.rng.Intn(len(pkgs))]
		className := g.className(obfuscated, classSeq)
		classSeq++
		fq := pkg + "." + className
		methodsInClass := 4 + g.rng.Intn(12)
		var prevName string
		for m := 0; m < methodsInClass && len(idxs) < count; m++ {
			name := g.methodName(obfuscated)
			// Occasional overloads of the previous method name.
			if prevName != "" && g.rng.Bool(0.15) {
				name = prevName
			}
			prevName = name
			method := dex.Method{
				Class:  fq,
				Name:   name,
				Params: g.params(),
				Return: descriptorPool[g.rng.Intn(len(descriptorPool))],
			}
			if err := g.d.AddMethod(method); err != nil {
				// Duplicate signature: perturb the name deterministically.
				method.Name = fmt.Sprintf("%s%d", name, len(idxs))
				if err := g.d.AddMethod(method); err != nil {
					return nil, fmt.Errorf("synth: generating method in %s: %w", fq, err)
				}
			}
			idxs = append(idxs, g.d.MethodCount()-1)
		}
	}
	return idxs, nil
}

func (g *codeGen) className(obfuscated bool, seq int) string {
	if obfuscated {
		name := string(rune('a' + seq%26))
		if seq >= 26 {
			name += string(rune('a' + (seq/26)%26))
		}
		if g.rng.Bool(0.2) {
			name += "$" + string(rune('a'+g.rng.Intn(4)))
		}
		return name
	}
	name := titleCase(syllable(g.rng)) + classNouns[g.rng.Intn(len(classNouns))]
	if g.rng.Bool(0.15) {
		name += fmt.Sprintf("$%d", 1+g.rng.Intn(3))
	}
	return name
}

func (g *codeGen) methodName(obfuscated bool) string {
	if obfuscated {
		return string(rune('a' + g.rng.Intn(6)))
	}
	return methodVerbs[g.rng.Intn(len(methodVerbs))] + methodNouns[g.rng.Intn(len(methodNouns))]
}

func (g *codeGen) params() []string {
	n := g.rng.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		// Index 0 of the pool is V (void), not valid as a parameter.
		out[i] = descriptorPool[1+g.rng.Intn(len(descriptorPool)-1)]
	}
	return out
}

// GenerateApp deterministically generates app #idx of the corpus.
func (w *World) GenerateApp(idx int) (*App, error) {
	if idx < 0 || idx >= w.cfg.NumApps {
		return nil, fmt.Errorf("synth: app index %d outside corpus size %d", idx, w.cfg.NumApps)
	}
	rng := sim.NewRand(w.cfg.Seed).Split(fmt.Sprintf("app-%d", idx))

	appCat := w.appCats[w.appCatChoice.Sample(rng)]
	pkg := fmt.Sprintf("com.%s%s.%s%d", syllable(rng), syllable(rng), syllable(rng), idx)

	profile := antMixed
	switch p := rng.Float64(); {
	case p < antOnlyShare:
		profile = antOnly
	case p < antOnlyShare+antFreeShare:
		profile = antFree
	}

	// Decide present (traffic-generating) library categories and embedded
	// library instances.
	libsByCat := make(map[corpus.LibraryCategory][]int)
	var libIdxs []int
	addLib := func(li int) bool {
		for _, existing := range libIdxs {
			if existing == li {
				return false
			}
		}
		libIdxs = append(libIdxs, li)
		lib := w.Libraries[li]
		libsByCat[lib.Category] = append(libsByCat[lib.Category], li)
		return true
	}
	for _, cat := range corpus.LibraryCategories() {
		if cat == corpus.LibUnknown {
			continue // first-party code plays this role
		}
		p := presenceByCategory[cat]
		rate := p.baseRate
		if appCat.IsGameCategory() {
			rate = p.gameRate
		}
		// AnT-only apps are defined by producing AnT traffic; they always
		// embed an advertisement library.
		if profile == antOnly && cat == corpus.LibAdvertisement {
			rate = 1
		}
		if !rng.Bool(rate) {
			continue
		}
		n := 1 + rng.Intn(p.maxLibs)
		for i := 0; i < n; i++ {
			li := w.sampleLibrary(cat, rng)
			// AnT-only apps must produce traffic exclusively through
			// libraries on the Li et al. AnT list; resample toward the
			// listed (high-popularity) libraries of the category.
			if profile == antOnly && isAnTCategory(cat) {
				li = w.sampleAnTListed(cat, li, rng)
			}
			addLib(li)
		}
	}
	// A few embedded-but-quiet libraries for LibRadar detection realism:
	// they ship in the dex but never generate traffic, so they join
	// libIdxs (code generation) without entering libsByCat (traffic).
	for i, extras := 0, rng.Intn(3); i < extras; i++ {
		cat := corpus.LibraryCategories()[rng.Intn(len(corpus.LibraryCategories()))]
		if cat == corpus.LibUnknown {
			continue
		}
		li := w.sampleLibrary(cat, rng)
		dup := false
		for _, existing := range libIdxs {
			if existing == li {
				dup = true
				break
			}
		}
		if !dup {
			libIdxs = append(libIdxs, li)
		}
	}

	// Method budget and code generation.
	meanMethods := float64(paperMeanMethods) * w.cfg.MethodScale
	total := int(sim.ClampInt64(int64(rng.LogNormal(math.Log(meanMethods), methodLogSigma)), 80, 400000))
	d := dex.NewFile(time.Date(2016+rng.Intn(3), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC))
	d.Grow(total)
	gen := &codeGen{d: d, rng: rng.Split("code")}

	firstPartyCount := int(float64(total) * 0.35)
	if firstPartyCount < 20 {
		firstPartyCount = 20
	}
	firstParty, err := gen.genPackage(pkg, firstPartyCount)
	if err != nil {
		return nil, err
	}
	libPools := make(map[int][]int, len(libIdxs))
	if len(libIdxs) > 0 {
		remaining := total - firstPartyCount
		if remaining < 10*len(libIdxs) {
			remaining = 10 * len(libIdxs)
		}
		weights := make([]float64, len(libIdxs))
		var wSum float64
		for i := range weights {
			weights[i] = rng.LogNormal(0, 0.5)
			wSum += weights[i]
		}
		for i, li := range libIdxs {
			share := int(float64(remaining) * weights[i] / wSum)
			if share < 10 {
				share = 10
			}
			pool, err := gen.genPackage(w.Libraries[li].Prefix, share)
			if err != nil {
				return nil, err
			}
			libPools[li] = pool
		}
	}

	// Activities and handlers.
	numActs := 3 + rng.Intn(5)
	activities := make([]art.Activity, numActs)
	for a := range activities {
		numHandlers := 2 + rng.Intn(4)
		handlers := make([]art.Handler, numHandlers)
		for h := range handlers {
			name := "onEvent" + fmt.Sprint(h)
			if h == 0 {
				name = "onCreate"
			}
			handlers[h] = art.Handler{Name: name}
		}
		activities[a] = art.Activity{Name: fmt.Sprintf("%s.ui.Activity%d", pkg, a), Handlers: handlers}
	}

	// Coverage: distribute a reachable subset of all methods over the
	// handlers (Figure 10 distribution).
	allMethods := make([]int, 0, d.MethodCount())
	allMethods = append(allMethods, firstParty...)
	// Iterate libraries in embedding order: map iteration order would make
	// the reachable-method selection nondeterministic.
	for _, li := range libIdxs {
		allMethods = append(allMethods, libPools[li]...)
	}
	covFrac := rng.LogNormal(coverageLogMeanPct, coverageLogSigma) / 100
	if covFrac > 1 {
		covFrac = 1
	}
	reachCount := int(covFrac * float64(len(allMethods)))
	if reachCount < 5 {
		reachCount = 5
	}
	perm := rng.Perm(len(allMethods))
	reachable := make([]int, 0, reachCount)
	for _, pi := range perm[:reachCount] {
		reachable = append(reachable, allMethods[pi])
	}
	// onCreate of the launcher activity gets the startup slice (~35%).
	startup := reachCount * 35 / 100
	activities[0].Handlers[0].MethodIdxs = append(activities[0].Handlers[0].MethodIdxs, reachable[:startup]...)
	for _, mi := range reachable[startup:] {
		a := rng.Intn(numActs)
		h := rng.Intn(len(activities[a].Handlers))
		activities[a].Handlers[h].MethodIdxs = append(activities[a].Handlers[h].MethodIdxs, mi)
	}

	// Traffic generation.
	trafficRng := rng.Split("traffic")
	requestScale := trafficRng.LogNormal(-0.5, 1.0)
	if requestScale < 0.1 {
		requestScale = 0.1
	}
	if requestScale > 8 {
		requestScale = 8
	}
	tg := &trafficGen{
		world: w, rng: trafficRng, appCat: appCat, profile: profile,
		libsByCat: libsByCat, libPools: libPools, firstParty: firstParty,
		activities: activities, requestScale: requestScale,
	}
	if err := tg.emitAll(); err != nil {
		return nil, err
	}

	program := &art.Program{PackageName: pkg, Dex: d, Activities: activities}

	abis := []string{apk.ABIX86, apk.ABIArmeabi}
	if rng.Bool(w.cfg.ARMOnlyRate) {
		abis = []string{apk.ABIArmeabi}
	} else if rng.Bool(0.5) {
		abis = nil // pure managed code
	}
	pack := &apk.APK{
		Manifest: apk.Manifest{
			Package:      pkg,
			VersionCode:  1 + rng.Intn(400),
			Category:     appCat,
			MainActivity: activities[0].Name,
		},
		Dex:        d,
		NativeABIs: abis,
		DexDate:    d.Created,
		VTScanDate: time.Date(2019, time.Month(1+rng.Intn(6)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC),
	}
	encoded, err := pack.Encode()
	if err != nil {
		return nil, fmt.Errorf("synth: encoding apk for app %d: %w", idx, err)
	}
	return &App{
		Index:   idx,
		APK:     pack,
		Encoded: encoded,
		SHA256:  apk.Checksum(encoded),
		Program: program,
		LibIdxs: libIdxs,
		profile: profile,
	}, nil
}

// trafficGen assembles the network operations of one app.
type trafficGen struct {
	world      *World
	rng        *sim.Rand
	appCat     corpus.AppCategory
	profile    antProfile
	libsByCat  map[corpus.LibraryCategory][]int
	libPools   map[int][]int
	firstParty []int
	activities []art.Activity
	// requestScale is the app-level upload heterogeneity factor: most apps
	// barely send anything (pure consumers), a minority upload heavily.
	// The Figure 5 ratio distribution spans three decades because of it.
	requestScale float64
}

func (tg *trafficGen) emitAll() error {
	mult := appCategoryVolumeMult(tg.appCat) / tg.world.meanCatMult
	for _, cat := range corpus.LibraryCategories() {
		suppressed := false
		switch tg.profile {
		case antOnly:
			suppressed = !isAnTCategory(cat)
		case antFree:
			suppressed = isAnTCategory(cat)
		}
		if suppressed {
			continue
		}
		if cat != corpus.LibUnknown && len(tg.libsByCat[cat]) == 0 {
			continue
		}
		// Volume target with mean-1 log-normal jitter.
		volume := tg.world.perAppBaseBytes(cat) * mult * tg.rng.LogNormal(-0.32, 0.8)
		if tweak, ok := intensityTweak[cat]; ok {
			volume *= tweak
		}
		if volume < 512 {
			continue
		}
		if err := tg.emitCategory(cat, volume); err != nil {
			return err
		}
	}
	// Framework-initiated connections (builtin-only stacks) — present in
	// mixed and AnT-free runs; AnT-only apps by definition show nothing
	// but AnT flows.
	if tg.profile != antOnly && tg.rng.Bool(builtinOpRate) {
		tg.emitBuiltinOps()
	}
	return nil
}

func (tg *trafficGen) emitCategory(cat corpus.LibraryCategory, volume float64) error {
	opKB := typicalOpKB[cat]
	n := int(volume / (opKB * 1024))
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	weights := make([]float64, n)
	var wSum float64
	for i := range weights {
		weights[i] = tg.rng.LogNormal(0, 0.7)
		wSum += weights[i]
	}
	for i := 0; i < n; i++ {
		opVolume := volume * weights[i] / wSum
		if err := tg.emitOp(cat, opVolume); err != nil {
			return err
		}
	}
	return nil
}

func (tg *trafficGen) emitOp(cat corpus.LibraryCategory, volume float64) error {
	// Choose the chain source: a library of the category, or first-party
	// code for the Unknown category.
	var chainPool []int
	var lib *Library
	if cat == corpus.LibUnknown {
		// 75% first-party code, 25% a LibRadar-unknown embedded library.
		chainPool = tg.firstParty
		if tg.rng.Bool(0.25) {
			if li, ok := tg.pickUnknownLib(); ok {
				lib = &tg.world.Libraries[li]
				chainPool = tg.libPools[li]
			}
		}
	} else {
		libs := tg.libsByCat[cat]
		li := libs[tg.rng.Intn(len(libs))]
		// Prefer LibRadar-known libraries so measured category shares stay
		// close to ground truth (§III-D resolves the rest heuristically).
		if !tg.world.Libraries[li].KnownToLibRadar {
			for attempt := 0; attempt < 2 && !tg.world.Libraries[li].KnownToLibRadar; attempt++ {
				li = libs[tg.rng.Intn(len(libs))]
			}
		}
		lib = &tg.world.Libraries[li]
		chainPool = tg.libPools[li]
	}
	if len(chainPool) == 0 {
		chainPool = tg.firstParty
	}

	// Build the app-level chain (bottom-first; chain[0] is the
	// origin-library candidate). Development-aid pool sockets (15%) have
	// no app frames at all: the bundled HTTP client's own pool created
	// them, so okhttp3.internal.http / volley become the origin.
	var chain []int
	transport := tg.sampleTransport()
	context := tg.sampleContext()
	poolSocket := cat == corpus.LibDevelopmentAid && tg.rng.Bool(0.15)
	if !poolSocket {
		chainLen := 1 + tg.rng.Intn(3)
		chain = make([]int, 0, chainLen)
		for i := 0; i < chainLen; i++ {
			chain = append(chain, chainPool[tg.rng.Intn(len(chainPool))])
		}
	} else if transport == art.TransportBuiltinOkhttp || transport == art.TransportJavaNet {
		transport = art.TransportBundledOkhttp3
	}

	// Destination: Figure 9 column mix, then Zipf within the category.
	destCats := corpus.DomainCategories()
	destCat := destCats[tg.world.destChoice[cat].Sample(tg.rng)]
	domain := tg.world.sampleDomain(destCat, tg.rng)

	runLimit := 1
	if isAnTCategory(cat) && tg.rng.Bool(0.4) {
		runLimit = 1 + tg.rng.Intn(3) // ad/beacon refresh
	}
	shape, ok := requestShapeByCategory[cat]
	if !ok {
		shape = defaultRequestShape
	}
	httpMethod := "GET"
	if tg.rng.Bool(shape.postRate) {
		httpMethod = "POST"
	}
	requestBytes := int(sim.ClampInt64(int64(tg.requestScale*tg.rng.LogNormal(shape.logMean, shape.logSigma)), 80, shape.maxBytes))
	responseBytes := int64(volume)/int64(runLimit) - int64(requestBytes)
	if responseBytes < 256 {
		responseBytes = 256
	}

	port := uint16(80)
	if tg.rng.Bool(httpsRate) {
		port = 443
	}
	ua := nets.DefaultUserAgent
	if rate, ok := identifiableUARate[cat]; ok && tg.rng.Bool(rate) && lib != nil {
		parts := strings.Split(lib.Prefix, ".")
		product := parts[len(parts)-1]
		ua = fmt.Sprintf("%s/%d.%d.0 (Linux; U; Android 7.1.1)", titleCase(product), 1+tg.rng.Intn(9), tg.rng.Intn(10))
	}
	path := fmt.Sprintf("/%s/v%d/%s", strings.ToLower(string(destCat)), 1+tg.rng.Intn(3), methodVerbs[tg.rng.Intn(len(methodVerbs))])
	contentTypes, ok := contentTypesByCategory[cat]
	if !ok {
		contentTypes = defaultContentTypes
	}
	contentType := contentTypes[tg.rng.Intn(len(contentTypes))]

	op := art.NetOp{
		ChainIdxs: chain,
		Context:   context,
		Transport: transport,
		RunLimit:  runLimit,
		Action: art.NetworkAction{
			Domain:        domain.Name,
			Port:          port,
			HTTPMethod:    httpMethod,
			Path:          path,
			UserAgent:     ua,
			ContentType:   contentType,
			RequestBytes:  requestBytes,
			ResponseBytes: responseBytes,
		},
	}
	tg.placeOp(op)
	return nil
}

// pickUnknownLib finds an embedded LibRadar-unknown library. Candidates
// are collected in canonical category order so the choice is deterministic.
func (tg *trafficGen) pickUnknownLib() (int, bool) {
	var candidates []int
	for _, cat := range corpus.LibraryCategories() {
		for _, li := range tg.libsByCat[cat] {
			if !tg.world.Libraries[li].KnownToLibRadar {
				candidates = append(candidates, li)
			}
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[tg.rng.Intn(len(candidates))], true
}

func (tg *trafficGen) emitBuiltinOps() {
	n := 1
	if tg.rng.Bool(0.3) {
		n = 2
	}
	for i := 0; i < n; i++ {
		destCat := tg.world.builtinCats[tg.world.builtinChoice.Sample(tg.rng)]
		domain := tg.world.sampleDomain(destCat, tg.rng)
		volume := tg.rng.LogNormal(math.Log(40*1024), 0.7)
		op := art.NetOp{
			Context:   art.ContextMainThread,
			Transport: art.TransportBuiltinOkhttp,
			RunLimit:  1,
			Action: art.NetworkAction{
				Domain:        domain.Name,
				Port:          443,
				HTTPMethod:    "GET",
				Path:          "/generate_204",
				UserAgent:     nets.DefaultUserAgent,
				ContentType:   "application/octet-stream",
				RequestBytes:  220,
				ResponseBytes: int64(volume),
			},
		}
		// Framework traffic happens at app start.
		tg.activities[0].Handlers[0].NetOps = append(tg.activities[0].Handlers[0].NetOps, op)
	}
	// Non-DNS UDP sliver: an NTP-style time sync at startup (the ~3% of
	// UDP traffic the paper observes beyond DNS, §III-E).
	if tg.rng.Bool(0.6) {
		domain := tg.world.sampleDomain(corpus.DomInternetServices, tg.rng)
		tg.activities[0].Handlers[0].NetOps = append(tg.activities[0].Handlers[0].NetOps, art.NetOp{
			Context:   art.ContextWorkerThread,
			Transport: art.TransportJavaNet,
			RunLimit:  1,
			Action: art.NetworkAction{
				Domain:        domain.Name,
				Port:          123,
				RequestBytes:  48,
				ResponseBytes: 48,
				UDPExchange:   true,
			},
		})
	}
}

func (tg *trafficGen) placeOp(op art.NetOp) {
	// Startup-heavy placement: AnT libraries load at app initialization
	// (§IV-C), other traffic spreads over handlers.
	if tg.rng.Bool(0.45) {
		tg.activities[0].Handlers[0].NetOps = append(tg.activities[0].Handlers[0].NetOps, op)
		return
	}
	a := tg.rng.Intn(len(tg.activities))
	h := tg.rng.Intn(len(tg.activities[a].Handlers))
	tg.activities[a].Handlers[h].NetOps = append(tg.activities[a].Handlers[h].NetOps, op)
}

func (tg *trafficGen) sampleContext() art.ContextKind {
	switch p := tg.rng.Float64(); {
	case p < 0.35:
		return art.ContextAsyncTask
	case p < 0.60:
		return art.ContextExecutorPool
	case p < 0.80:
		return art.ContextWorkerThread
	default:
		return art.ContextMainThread
	}
}

func (tg *trafficGen) sampleTransport() art.TransportKind {
	switch p := tg.rng.Float64(); {
	case p < 0.55:
		return art.TransportBuiltinOkhttp
	case p < 0.75:
		return art.TransportBundledOkhttp3
	case p < 0.90:
		return art.TransportVolley
	default:
		return art.TransportJavaNet
	}
}

// titleCase upper-cases the first ASCII letter of s.
func titleCase(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}
